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
	"drapid/internal/rdd"
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
	// ClusterSPEs is each cluster's member count, in cluster payload order
	// (they sum to SPEsSearched): the per-task sizes the multithreaded
	// baseline schedules.
	ClusterSPEs []int
}

// ProcessKeyGroup runs the D-RAPID search phase for one observation key:
// parse the observation's SPE payloads once, then search every cluster
// payload with a Searcher. This is the body of the "Search" phase of
// Figure 3.
func ProcessKeyGroup(key string, clusterPayloads, dataPayloads []string, p core.Params, cfg features.Config) ([]MLRecord, WorkStats, error) {
	var stats WorkStats
	if len(clusterPayloads) == 0 {
		return nil, stats, nil
	}
	events := make([]spe.SPE, len(dataPayloads))
	for i, payload := range dataPayloads {
		e, err := spe.ParseDataPayload(payload)
		if err != nil {
			return nil, stats, err
		}
		events[i] = e
	}
	stats.EventsParsed = len(events)
	spe.SortByDM(events)

	stats.ClusterSPEs = make([]int, 0, len(clusterPayloads))
	s := Searcher{Key: key, Params: p, Feat: cfg}
	var out []MLRecord
	for _, payload := range clusterPayloads {
		cl, err := spe.ParseClusterPayload(payload)
		if err != nil {
			return nil, stats, err
		}
		before := len(out)
		var n int
		out, n = s.Search(out, events, &cl)
		stats.ClusterSPEs = append(stats.ClusterSPEs, n)
		stats.SPEsSearched += n
		stats.Pulses += len(out) - before
	}
	return out, stats, nil
}

// Searcher is the per-cluster core of the Search phase, over typed events:
// select a cluster's member events, search them for single pulses
// (core.Search) and extract each pulse's features. ProcessKeyGroup feeds it
// parsed payloads, and SearchEvents an observation's own events rounded as
// their records would be, so both emit the same records. The buffers are
// reused by every cluster and every call: neither the search (pulses are
// index ranges) nor feature extraction (a value) keeps a reference to
// them.
type Searcher struct {
	// Key is the observation key every record carries.
	Key    string
	Params core.Params
	Feat   features.Config
	member []spe.SPE
	byDM   []spe.SPE
}

// SearchEvents searches one observation's events against its clusters,
// appending the records to out in cluster order. The events and clusters
// are read as their CSV records carry them (spe.Quantize,
// spe.QuantizeCluster, the wire rounding), so the records are exactly the
// ones ProcessKeyGroup emits over the same observation's lines. Neither
// argument is modified.
func (s *Searcher) SearchEvents(out []MLRecord, events []spe.SPE, clusters []*spe.Cluster) []MLRecord {
	if len(clusters) == 0 {
		return out
	}
	s.byDM = s.byDM[:0]
	for _, e := range events {
		s.byDM = append(s.byDM, spe.Quantize(e))
	}
	spe.SortByDM(s.byDM)
	for _, c := range clusters {
		cl := spe.QuantizeCluster(*c)
		out, _ = s.Search(out, s.byDM, &cl)
	}
	return out
}

// Search appends one record per single pulse of cl to out. events must be
// the observation's events sorted by spe.SortByDM. n is the number of
// events inside cl's bounding box: the SPEs searched.
func (s *Searcher) Search(out []MLRecord, events []spe.SPE, cl *spe.Cluster) (_ []MLRecord, n int) {
	s.member = selectMembers(s.member[:0], events, cl)
	for _, pl := range core.Search(s.member, s.Params) {
		out = append(out, MLRecord{
			Key:       s.Key,
			ClusterID: cl.ID,
			PulseRank: pl.Rank,
			Vec:       features.Extract(s.member, pl, cl, s.Feat),
		})
	}
	return out, len(s.member)
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
	data, clusters := groupLines(dataLines), groupLines(clusterLines)
	groups := make([]KeyGroup, 0, len(clusters.groups))
	for _, c := range clusters.groups {
		g := KeyGroup{Key: c.Key, Clusters: c.Value}
		if i, ok := data.keys[c.Key]; ok {
			g.Data = data.groups[i].Value
		}
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b KeyGroup) int { return strings.Compare(a.Key, b.Key) })
	return groups
}

// keyedPayloads is a set of keyed lines' payloads grouped by canonical key:
// keys in first-appearance order, payloads in line order, each payload a
// substring of its line. Every distinct record head is canonicalised once,
// and heads that canonicalise alike (a ':' inside a field) share one group.
type keyedPayloads struct {
	keys   map[string]int // canonical key → index into groups
	groups []rdd.Pair[string, []string]
	// body counts the non-header lines, keyed those that split.
	body, keyed int
}

// groupLines groups lines' payloads by key, skipping headers and lines with
// fewer than six fields as RunDRAPID's loader skips them.
func groupLines(lines []string) *keyedPayloads {
	g := &keyedPayloads{keys: make(map[string]int)}
	heads := make(map[string]int) // record head → index into groups
	for _, line := range lines {
		if spe.IsHeader(line) {
			continue
		}
		g.body++
		head, payload, ok := spe.CutKeyed(line)
		if !ok {
			continue
		}
		i, seen := heads[head]
		if !seen {
			key := spe.CanonicalKey(head)
			if i, seen = g.keys[key]; !seen {
				i = len(g.groups)
				g.keys[key] = i
				g.groups = append(g.groups, rdd.Pair[string, []string]{Key: key})
			}
			heads[head] = i
		}
		g.keyed++
		g.groups[i].Value = append(g.groups[i].Value, payload)
	}
	return g
}

// selectMembers appends to dst the DM-sorted events inside the cluster's
// bounding box. events must already be DM-sorted.
func selectMembers(dst, events []spe.SPE, cl *spe.Cluster) []spe.SPE {
	for i := searchDM(events, cl.DMMin); i < len(events) && events[i].DM <= cl.DMMax; i++ {
		if events[i].Time >= cl.TMin && events[i].Time <= cl.TMax {
			dst = append(dst, events[i])
		}
	}
	return dst
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
