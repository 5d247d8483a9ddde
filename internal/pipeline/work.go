// Package pipeline wires the paper's four-stage scientific workflow
// (Figure 2): preprocessing observations into SPE and cluster files,
// uploading them to HDFS, running the distributed D-RAPID identification
// job (Figure 3), and collecting the ML files that feed classification.
//
// The per-cluster search work lives here so that the distributed driver
// and the multithreaded baseline execute the *same* code path and can be
// checked against each other record-for-record.
package pipeline

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"drapid/internal/core"
	"drapid/internal/features"
	"drapid/internal/spe"
)

// MLRecord is one line of the ML files D-RAPID writes back to HDFS: the
// observation key, the source cluster, the pulse's rank within it, and the
// 22 extracted features.
type MLRecord struct {
	Key       string
	ClusterID int
	PulseRank int
	Vec       features.Vector
}

// MLHeader is the header line of ML files.
var MLHeader = "# key,cluster,pulserank," + strings.ToLower(strings.Join(features.Names[:], ","))

// Format renders the record as a CSV line.
func (r MLRecord) Format() string {
	var b strings.Builder
	b.Grow(32 + features.Count*12)
	b.WriteString(r.Key)
	fmt.Fprintf(&b, ",%d,%d", r.ClusterID, r.PulseRank)
	for _, v := range r.Vec {
		fmt.Fprintf(&b, ",%.6g", v)
	}
	return b.String()
}

// ParseMLRecord parses a line produced by Format.
func ParseMLRecord(line string) (MLRecord, error) {
	f := strings.Split(line, ",")
	// Keys contain no commas (colon-joined), so the layout is fixed.
	want := 3 + features.Count
	if len(f) != want {
		return MLRecord{}, fmt.Errorf("pipeline: ML record needs %d fields, got %d", want, len(f))
	}
	var r MLRecord
	r.Key = f[0]
	var err error
	if r.ClusterID, err = strconv.Atoi(f[1]); err != nil {
		return MLRecord{}, fmt.Errorf("pipeline: bad cluster id: %w", err)
	}
	if r.PulseRank, err = strconv.Atoi(f[2]); err != nil {
		return MLRecord{}, fmt.Errorf("pipeline: bad pulse rank: %w", err)
	}
	for i := 0; i < features.Count; i++ {
		if r.Vec[i], err = strconv.ParseFloat(f[3+i], 64); err != nil {
			return MLRecord{}, fmt.Errorf("pipeline: bad feature %s: %w", features.Names[i], err)
		}
	}
	return r, nil
}

// WorkStats reports the compute-relevant volume of one key group's search,
// which the cost models price.
type WorkStats struct {
	// SPEsSearched sums the events examined across clusters (with the
	// observation parsed once and re-used, as both drivers do).
	SPEsSearched int
	// EventsParsed is the observation's SPE payload count.
	EventsParsed int
	// Pulses is the number of single pulses identified.
	Pulses int
}

// ProcessKeyGroup runs the D-RAPID search phase for one observation key:
// parse the observation's SPE payloads once, then for every cluster payload
// select the member events, search them, and extract features. This is the
// body of the "Search" phase of Figure 3.
func ProcessKeyGroup(key string, clusterPayloads, dataPayloads []string, p core.Params, cfg features.Config) ([]MLRecord, WorkStats, error) {
	var stats WorkStats
	if len(clusterPayloads) == 0 {
		return nil, stats, nil
	}
	events := make([]spe.SPE, 0, len(dataPayloads))
	for _, payload := range dataPayloads {
		e, err := spe.ParseDataPayload(payload)
		if err != nil {
			return nil, stats, err
		}
		events = append(events, e)
	}
	stats.EventsParsed = len(events)
	spe.SortByDM(events)

	var out []MLRecord
	for _, payload := range clusterPayloads {
		cl, err := spe.ParseClusterPayload(payload)
		if err != nil {
			return nil, stats, err
		}
		member := selectMembers(events, cl)
		stats.SPEsSearched += len(member)
		pulses := core.Search(member, p)
		stats.Pulses += len(pulses)
		for _, pl := range pulses {
			out = append(out, MLRecord{
				Key:       key,
				ClusterID: cl.ID,
				PulseRank: pl.Rank,
				Vec:       features.Extract(member, pl, cl, cfg),
			})
		}
	}
	return out, stats, nil
}

// KeyGroup is one observation key's cluster and SPE data payloads, each in
// input line order: the unit ProcessKeyGroup searches.
type KeyGroup struct {
	Key      string
	Clusters []string
	Data     []string
}

// GroupByKey groups keyed data and cluster lines by observation key in
// memory — the grouping the Search phase of Figure 3 runs over. Header lines
// and lines that do not split into a key and a payload are skipped, as
// RunDRAPID's loader skips them. Only keys with at least one cluster form a
// group (the cluster side drives the join), and groups come back in key
// order.
func GroupByKey(dataLines, clusterLines []string) []KeyGroup {
	data, clusters := payloadsByKey(dataLines), payloadsByKey(clusterLines)
	groups := make([]KeyGroup, 0, len(clusters))
	for k, cl := range clusters {
		groups = append(groups, KeyGroup{Key: k, Clusters: cl, Data: data[k]})
	}
	slices.SortFunc(groups, func(a, b KeyGroup) int { return strings.Compare(a.Key, b.Key) })
	return groups
}

// payloadsByKey maps each keyed line's key to its payloads.
func payloadsByKey(lines []string) map[string][]string {
	by := make(map[string][]string)
	for _, line := range lines {
		if spe.IsHeader(line) {
			continue
		}
		k, payload, err := spe.SplitKeyed(line)
		if err != nil {
			continue
		}
		by[k] = append(by[k], payload)
	}
	return by
}

// Identify is RunDRAPID's Search phase run in memory on the calling
// goroutine: the prepared lines grouped by key, then ProcessKeyGroup per key
// in key order. It reads the same wire-format payloads, so the features see
// the same rounding and the records are the ones RunDRAPID emits; a
// malformed key group is dropped and counted exactly as RunDRAPID counts it.
func Identify(p *Prepared, params core.Params, feat features.Config) (recs []MLRecord, dropped int64) {
	for _, g := range GroupByKey(p.DataLines, p.ClusterLines) {
		out, _, err := ProcessKeyGroup(g.Key, g.Clusters, g.Data, params, feat)
		if err != nil {
			dropped++
			continue
		}
		recs = append(recs, out...)
	}
	return recs, dropped
}

// selectMembers returns the DM-sorted events inside the cluster's bounding
// box. events must already be DM-sorted; the result shares no storage with
// future calls.
func selectMembers(events []spe.SPE, cl *spe.Cluster) []spe.SPE {
	lo := searchDM(events, cl.DMMin)
	var member []spe.SPE
	for i := lo; i < len(events) && events[i].DM <= cl.DMMax; i++ {
		if events[i].Time >= cl.TMin && events[i].Time <= cl.TMax {
			member = append(member, events[i])
		}
	}
	return member
}

// searchDM finds the first index with DM >= dm in DM-sorted events.
func searchDM(events []spe.SPE, dm float64) int {
	lo, hi := 0, len(events)
	for lo < hi {
		mid := (lo + hi) / 2
		if events[mid].DM < dm {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
