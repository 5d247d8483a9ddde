package spe

import (
	"bufio"
	"fmt"
	"io"
)

// The whole-file codec below reads and writes the CSV files the pipeline
// interchanges. No binary needs it, since the pipeline keeps its lines in
// memory and in simulated HDFS, so it lives with the tests that use it to
// check the record codec over whole files.

// WriteDataFile writes a data file (header plus one record per event) for a
// set of observations.
func WriteDataFile(w io.Writer, obs []Observation) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, DataHeader); err != nil {
		return err
	}
	var line []byte
	for _, o := range obs {
		for _, e := range o.Events {
			line = append(AppendDataLine(line[:0], o.Key, e), '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteClusterFile writes a cluster file (header plus one record per cluster).
func WriteClusterFile(w io.Writer, cs []*Cluster) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, ClusterHeader); err != nil {
		return err
	}
	var line []byte
	for _, c := range cs {
		line = append(AppendClusterLine(line[:0], c), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDataFile parses a data file into observations grouped by key, in first-
// appearance order. Header and blank lines (including trailing ones) are
// skipped; a malformed record fails with its 1-based line number, so a bad
// row in a multi-gigabyte survey file can actually be found.
func ReadDataFile(r io.Reader) ([]Observation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	order := []Key{}
	byKey := map[Key][]SPE{}
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if IsHeader(line) {
			continue
		}
		k, e, err := ParseDataLine(line)
		if err != nil {
			return nil, fmt.Errorf("spe: line %d: %w", ln, err)
		}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spe: after line %d: %w", ln, err)
	}
	obs := make([]Observation, 0, len(order))
	for _, k := range order {
		obs = append(obs, Observation{Key: k, Events: byKey[k]})
	}
	return obs, nil
}

// ReadClusterFile parses a cluster file. Header and blank lines (including
// trailing ones) are skipped; a malformed record fails with its 1-based
// line number.
func ReadClusterFile(r io.Reader) ([]*Cluster, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var cs []*Cluster
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if IsHeader(line) {
			continue
		}
		c, err := ParseClusterLine(line)
		if err != nil {
			return nil, fmt.Errorf("spe: line %d: %w", ln, err)
		}
		cs = append(cs, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spe: after line %d: %w", ln, err)
	}
	return cs, nil
}
