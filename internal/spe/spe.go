// Package spe defines the single-pulse-event (SPE) data model shared by the
// whole pipeline: events produced by a single-pulse search, the observation
// keys used to join distributed files, and the cluster records emitted by the
// stage-2 DBSCAN clustering.
//
// Terminology follows the paper: an SPE is one point in the DM-vs-time
// candidate space; a single pulse (SP) is a cluster of SPEs with a distinct
// peak in the SNR-vs-DM space.
package spe

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SPE is a single pulse event: one detection above threshold at one trial DM,
// as produced by a PRESTO-style single_pulse_search over dedispersed
// time series.
type SPE struct {
	// DM is the trial dispersion measure in pc cm^-3.
	DM float64
	// SNR is the signal-to-noise ratio of the detection.
	SNR float64
	// Time is the arrival time in seconds from the start of the observation.
	Time float64
	// Sample is the time-series sample index of the detection.
	Sample int64
	// Downfact is the matched-filter downsampling factor that maximised SNR.
	Downfact int
}

// Key identifies one observation. Every record in both the SPE data file and
// the cluster file begins with these descriptors; their concatenation is the
// join key used by the distributed D-RAPID driver (paper §5.1.1).
type Key struct {
	// Dataset names the survey, e.g. "PALFA" or "GBT350Drift".
	Dataset string
	// MJD is the mean Julian date of the observation.
	MJD float64
	// RA is the right ascension of the pointing, in degrees.
	RA float64
	// Dec is the declination of the pointing, in degrees.
	Dec float64
	// Beam is the receiver beam number (PALFA uses a seven-beam receiver).
	Beam int
}

// String renders the key in the canonical "dataset:mjd:ra:dec:beam" form used
// as the KVP-RDD key. The form is stable: it round-trips through ParseKey.
func (k Key) String() string {
	return fmt.Sprintf("%s:%.4f:%.4f:%.4f:%d", k.Dataset, k.MJD, k.RA, k.Dec, k.Beam)
}

// ParseKey parses the canonical form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	n, err := fmt.Sscanf(strings.ReplaceAll(s, ":", " "), "%s %f %f %f %d",
		&k.Dataset, &k.MJD, &k.RA, &k.Dec, &k.Beam)
	if err != nil || n != 5 {
		return Key{}, fmt.Errorf("spe: malformed key %q", s)
	}
	return k, nil
}

// Observation is the full set of SPEs detected in one observation, tagged
// with its key. Events are not required to be sorted; use SortByTime or
// SortByDM before algorithms that need an ordering.
type Observation struct {
	Key    Key
	Events []SPE
}

// SortByTime orders events by arrival time, breaking ties by DM, then by
// matched width and SNR. The comparator is a total order on distinct
// events, so the sorted sequence is canonical for any input permutation —
// what lets independently-produced event streams (per-trial folds, block
// streams, fleet shards) merge into byte-identical output. In practice
// (Time, DM) alone already distinguishes the search's events — boxcar
// overlap merging keeps one detection per window — the extra keys are
// insurance for hand-built event sets. The comparator is negative exactly
// when the less function SortByTime has always used holds, so, as for
// SortByDM, every input gets the permutation sort.Slice produced.
func SortByTime(events []SPE) {
	slices.SortFunc(events, func(a, b SPE) int {
		if a.Time != b.Time {
			return order(a.Time < b.Time)
		}
		if a.DM != b.DM {
			return order(a.DM < b.DM)
		}
		if a.Downfact != b.Downfact {
			return order(a.Downfact < b.Downfact)
		}
		if a.SNR < b.SNR {
			return -1
		}
		if a.SNR > b.SNR {
			return 1
		}
		return 0
	})
}

// order is a comparator's result for two values known to differ: -1 when
// the first is less, 1 otherwise.
func order(lt bool) int {
	if lt {
		return -1
	}
	return 1
}

// SortByDM orders events by trial DM, breaking ties by arrival time. The
// comparator is negative exactly when "a.DM < b.DM, or equal DMs and
// a.Time < b.Time" holds (NaN compares unequal and never less), the less
// function SortByDM has always used; pdqsort only asks whether cmp < 0, so
// every input, ties and NaN included, gets the permutation sort.Slice
// produced.
func SortByDM(events []SPE) {
	slices.SortFunc(events, func(a, b SPE) int {
		if a.DM != b.DM {
			return order(a.DM < b.DM)
		}
		if a.Time < b.Time {
			return -1
		}
		if a.Time > b.Time {
			return 1
		}
		return 0
	})
}

// Cluster is a stage-2 DBSCAN cluster of SPEs: the unit of work D-RAPID
// searches for single pulses. It summarises the member events so the cluster
// file stays small relative to the data file (paper: 200 MB vs 10.2 GB).
type Cluster struct {
	// ID is unique within the observation.
	ID int
	// Key is the observation the cluster belongs to.
	Key Key
	// N is the number of member SPEs.
	N int
	// DMMin and DMMax bound the cluster in DM.
	DMMin, DMMax float64
	// TMin and TMax bound the cluster in time.
	TMin, TMax float64
	// SNRMax is the highest member SNR.
	SNRMax float64
	// Rank is the SNR-based rank of this cluster among all clusters of the
	// observation (1 = brightest); the ClusterRank feature of Table 1.
	Rank int
}

// Contains reports whether the event falls inside the cluster's DM/time
// bounding box. D-RAPID uses the box to select the SPEs a worker must search.
func (c *Cluster) Contains(e SPE) bool {
	return e.DM >= c.DMMin && e.DM <= c.DMMax && e.Time >= c.TMin && e.Time <= c.TMax
}

// RankClusters assigns Rank (1-based, by descending SNRMax) to the clusters
// of one observation, mutating them in place. Ties keep their relative order.
func RankClusters(cs []*Cluster) {
	idx := make([]int, len(cs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cs[idx[a]].SNRMax > cs[idx[b]].SNRMax })
	for rank, i := range idx {
		cs[i].Rank = rank + 1
	}
}

// Summarize computes N, bounds and SNRMax for a cluster from its members.
// It does not assign Rank; use RankClusters once all clusters are known.
func Summarize(id int, key Key, members []SPE) *Cluster {
	c := &Cluster{ID: id, Key: key, N: len(members)}
	if len(members) == 0 {
		return c
	}
	c.DMMin, c.DMMax = members[0].DM, members[0].DM
	c.TMin, c.TMax = members[0].Time, members[0].Time
	c.SNRMax = members[0].SNR
	for _, e := range members[1:] {
		if e.DM < c.DMMin {
			c.DMMin = e.DM
		}
		if e.DM > c.DMMax {
			c.DMMax = e.DM
		}
		if e.Time < c.TMin {
			c.TMin = e.Time
		}
		if e.Time > c.TMax {
			c.TMax = e.Time
		}
		if e.SNR > c.SNRMax {
			c.SNRMax = e.SNR
		}
	}
	return c
}
