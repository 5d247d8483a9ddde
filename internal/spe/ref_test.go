package spe

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The oracles below are the Split/Join/Sprintf codec and the sort.Slice
// orderings the field scanners, append formatters, SortByDM and SortByTime
// replaced, kept verbatim so the differential tests can hold the new code
// to their exact accept/reject sets, values, error texts, bytes and
// permutations.

func refFormatDataLine(k Key, e SPE) string {
	return fmt.Sprintf("%s,%.4f,%.4f,%.4f,%d,%.4f,%.3f,%.6f,%d,%d",
		k.Dataset, k.MJD, k.RA, k.Dec, k.Beam, e.DM, e.SNR, e.Time, e.Sample, e.Downfact)
}

func refFormatClusterLine(c *Cluster) string {
	k := c.Key
	return fmt.Sprintf("%s,%.4f,%.4f,%.4f,%d,%d,%d,%.4f,%.4f,%.6f,%.6f,%.3f,%d",
		k.Dataset, k.MJD, k.RA, k.Dec, k.Beam, c.ID, c.N, c.DMMin, c.DMMax, c.TMin, c.TMax, c.SNRMax, c.Rank)
}

func refSplitKeyed(line string) (key, payload string, err error) {
	rest := line
	for i := 0; i < 5; i++ {
		j := strings.IndexByte(rest, ',')
		if j < 0 {
			return "", "", fmt.Errorf("spe: record has fewer than 6 fields: %q", line)
		}
		rest = rest[j+1:]
	}
	head := line[:len(line)-len(rest)-1]
	return strings.ReplaceAll(head, ",", ":"), rest, nil
}

func refParseDataLine(line string) (Key, SPE, error) {
	f := strings.Split(line, ",")
	if len(f) != 10 {
		return Key{}, SPE{}, fmt.Errorf("spe: data record needs 10 fields, got %d: %q", len(f), line)
	}
	k, err := refParseKeyFields(f[:5])
	if err != nil {
		return Key{}, SPE{}, err
	}
	e, err := refParseDataPayload(strings.Join(f[5:], ","))
	if err != nil {
		return Key{}, SPE{}, err
	}
	return k, e, nil
}

func refParseDataPayload(payload string) (SPE, error) {
	f := strings.Split(payload, ",")
	if len(f) != 5 {
		return SPE{}, fmt.Errorf("spe: data payload needs 5 fields, got %d: %q", len(f), payload)
	}
	var (
		e    SPE
		errs [5]error
	)
	e.DM, errs[0] = strconv.ParseFloat(f[0], 64)
	e.SNR, errs[1] = strconv.ParseFloat(f[1], 64)
	e.Time, errs[2] = strconv.ParseFloat(f[2], 64)
	e.Sample, errs[3] = strconv.ParseInt(f[3], 10, 64)
	df, err := strconv.Atoi(f[4])
	errs[4] = err
	e.Downfact = df
	for _, err := range errs {
		if err != nil {
			return SPE{}, fmt.Errorf("spe: bad data payload %q: %w", payload, err)
		}
	}
	return e, nil
}

func refParseClusterLine(line string) (*Cluster, error) {
	f := strings.Split(line, ",")
	if len(f) != 13 {
		return nil, fmt.Errorf("spe: cluster record needs 13 fields, got %d: %q", len(f), line)
	}
	k, err := refParseKeyFields(f[:5])
	if err != nil {
		return nil, err
	}
	c, err := refParseClusterPayload(strings.Join(f[5:], ","))
	if err != nil {
		return nil, err
	}
	c.Key = k
	return c, nil
}

func refParseClusterPayload(payload string) (*Cluster, error) {
	f := strings.Split(payload, ",")
	if len(f) != 8 {
		return nil, fmt.Errorf("spe: cluster payload needs 8 fields, got %d: %q", len(f), payload)
	}
	var c Cluster
	var err error
	if c.ID, err = strconv.Atoi(f[0]); err != nil {
		return nil, fmt.Errorf("spe: bad cluster id: %w", err)
	}
	if c.N, err = strconv.Atoi(f[1]); err != nil {
		return nil, fmt.Errorf("spe: bad cluster n: %w", err)
	}
	nums := [5]*float64{&c.DMMin, &c.DMMax, &c.TMin, &c.TMax, &c.SNRMax}
	for i, p := range nums {
		if *p, err = strconv.ParseFloat(f[2+i], 64); err != nil {
			return nil, fmt.Errorf("spe: bad cluster field %d: %w", 2+i, err)
		}
	}
	if c.Rank, err = strconv.Atoi(f[7]); err != nil {
		return nil, fmt.Errorf("spe: bad cluster rank: %w", err)
	}
	return &c, nil
}

func refParseKeyFields(f []string) (Key, error) {
	var k Key
	var err error
	k.Dataset = f[0]
	if k.MJD, err = strconv.ParseFloat(f[1], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad mjd: %w", err)
	}
	if k.RA, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad ra: %w", err)
	}
	if k.Dec, err = strconv.ParseFloat(f[3], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad dec: %w", err)
	}
	if k.Beam, err = strconv.Atoi(f[4]); err != nil {
		return Key{}, fmt.Errorf("spe: bad beam: %w", err)
	}
	return k, nil
}

func refSortByDM(events []SPE) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].DM != events[j].DM {
			return events[i].DM < events[j].DM
		}
		return events[i].Time < events[j].Time
	})
}

func refSortByTime(events []SPE) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.DM != b.DM {
			return a.DM < b.DM
		}
		if a.Downfact != b.Downfact {
			return a.Downfact < b.Downfact
		}
		return a.SNR < b.SNR
	})
}

// sameFloat compares bit patterns, so NaN equals NaN and −0 differs from +0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameKey(a, b Key) bool {
	return a.Dataset == b.Dataset && sameFloat(a.MJD, b.MJD) && sameFloat(a.RA, b.RA) &&
		sameFloat(a.Dec, b.Dec) && a.Beam == b.Beam
}

func sameSPE(a, b SPE) bool {
	return sameFloat(a.DM, b.DM) && sameFloat(a.SNR, b.SNR) && sameFloat(a.Time, b.Time) &&
		a.Sample == b.Sample && a.Downfact == b.Downfact
}

func sameCluster(a, b Cluster) bool {
	return sameKey(a.Key, b.Key) && a.ID == b.ID && a.N == b.N && sameFloat(a.DMMin, b.DMMin) &&
		sameFloat(a.DMMax, b.DMMax) && sameFloat(a.TMin, b.TMin) && sameFloat(a.TMax, b.TMax) &&
		sameFloat(a.SNRMax, b.SNRMax) && a.Rank == b.Rank
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkDataLine holds ParseDataLine, ParseDataPayload and SplitKeyed to
// their Split-based oracles on one input.
func checkDataLine(t *testing.T, line string) {
	t.Helper()
	k, e, err := ParseDataLine(line)
	rk, re, rerr := refParseDataLine(line)
	if !sameErr(err, rerr) || !sameKey(k, rk) || !sameSPE(e, re) {
		t.Fatalf("ParseDataLine(%q) = %+v %+v %v, oracle %+v %+v %v", line, k, e, err, rk, re, rerr)
	}
	key, payload, err := SplitKeyed(line)
	rkey, rpayload, rerr := refSplitKeyed(line)
	if key != rkey || payload != rpayload || !sameErr(err, rerr) {
		t.Fatalf("SplitKeyed(%q) = %q %q %v, oracle %q %q %v", line, key, payload, err, rkey, rpayload, rerr)
	}
	e, err = ParseDataPayload(line)
	re, rerr = refParseDataPayload(line)
	if !sameErr(err, rerr) || !sameSPE(e, re) {
		t.Fatalf("ParseDataPayload(%q) = %+v %v, oracle %+v %v", line, e, err, re, rerr)
	}
}

// checkClusterLine holds ParseClusterLine and ParseClusterPayload to their
// Split-based oracles on one input.
func checkClusterLine(t *testing.T, line string) {
	t.Helper()
	c, err := ParseClusterLine(line)
	rc, rerr := refParseClusterLine(line)
	if !sameErr(err, rerr) || (c == nil) != (rc == nil) || (c != nil && !sameCluster(*c, *rc)) {
		t.Fatalf("ParseClusterLine(%q) = %+v %v, oracle %+v %v", line, c, err, rc, rerr)
	}
	v, err := ParseClusterPayload(line)
	rc, rerr = refParseClusterPayload(line)
	if !sameErr(err, rerr) || (rerr == nil && !sameCluster(v, *rc)) || (rerr != nil && v != Cluster{}) {
		t.Fatalf("ParseClusterPayload(%q) = %+v %v, oracle %+v %v", line, v, err, rc, rerr)
	}
}
