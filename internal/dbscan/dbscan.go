// Package dbscan implements the stage-2 clustering of the pipeline: a
// density-based clustering of single pulse events in the DM-vs-time plane,
// customized for radio astronomy following the paper's reference [24]
// (Pang et al.). Two customizations matter:
//
//  1. distances are measured in trial-DM steps, not raw DM, so the widening
//     DM spacing at high DM (0.01 → 2.0) does not tear clusters apart; and
//  2. a post-pass merges clusters that one single pulse left "appearing
//     disparate due to artifacts of data processing" — fragments that are
//     adjacent in DM with a small time gap.
package dbscan

import (
	"math"
	"slices"

	"drapid/internal/dmgrid"
	"drapid/internal/spe"
)

// Noise is the label assigned to events that belong to no cluster.
const Noise = -1

// Params configures the clustering.
type Params struct {
	// EpsDMTrials is the neighborhood radius measured in trial-DM grid
	// steps.
	EpsDMTrials float64
	// EpsTime is the neighborhood radius in seconds.
	EpsTime float64
	// MinPts is the minimum neighborhood size (the point itself included)
	// for a core point.
	MinPts int
	// MergeDMTrials and MergeTime bound the gap across which the merge
	// pass joins cluster fragments. Zero disables merging.
	MergeDMTrials float64
	MergeTime     float64
}

// DefaultParams returns the tuning used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		EpsDMTrials:   6,
		EpsTime:       0.10,
		MinPts:        3,
		MergeDMTrials: 12,
		MergeTime:     0.05,
	}
}

// Result holds the clustering outcome for one observation.
type Result struct {
	// Labels assigns each input event its cluster index, or Noise.
	Labels []int
	// Clusters are the summarised cluster records, ranked by SNR.
	Clusters []*spe.Cluster
	// Members holds, per cluster, the indices of its events in the input
	// slice.
	Members [][]int
}

// MemberEvents materialises cluster i's member events from the input slice
// the clustering ran over, preserving input (time) order — the view the
// post-classification sifter rates groups from.
func (r *Result) MemberEvents(i int, events []spe.SPE) []spe.SPE {
	out := make([]spe.SPE, len(r.Members[i]))
	for j, idx := range r.Members[i] {
		out[j] = events[idx]
	}
	return out
}

// Cluster runs the customized DBSCAN over one observation's events.
//
// Neighbourhoods come from a flat cell index (see cellIndex). A query
// lists exactly the points the map-indexed implementation it replaced
// listed, in the same order: cell columns dx = -1, 0, 1, within each the
// rows dy = -1, 0, 1, within a cell ascending index. The labels depend on
// the neighbour sets only, not on that order: clusters are seeded in
// index order, a noise point a cluster reaches joins it (and expands it
// if core), and a border point an earlier cluster claimed is relabelled
// without expanding. FuzzClusterMatchesRef holds Labels, IDs and Members
// DeepEqual to the old implementation, kept in the tests as refCluster.
func Cluster(events []spe.SPE, grid *dmgrid.Grid, key spe.Key, p Params) *Result {
	n := len(events)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return &Result{Labels: labels}
	}

	// Each event's trial index, looked up once for both passes, and its
	// normalised coordinates: x in trial steps, y in eps-time units.
	trials := make([]int, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, e := range events {
		trials[i] = grid.IndexOf(e.DM)
		xs[i] = float64(trials[i]) / p.EpsDMTrials
		ys[i] = e.Time / p.EpsTime
	}
	idx := newCellIndex(xs, ys)

	// Standard DBSCAN with BFS expansion. A point already labelled with
	// the cluster being grown is never queued: popping it would do nothing.
	nextID := 0
	var neigh []int32
	queue := make([]int32, 0, 64)
	for i := 0; i < n; i++ {
		if labels[i] != Noise {
			continue
		}
		neigh = idx.neighbors(neigh[:0], i, xs, ys)
		if len(neigh) < p.MinPts {
			continue
		}
		id := nextID
		nextID++
		labels[i] = id
		queue = appendUnlabelled(queue[:0], neigh, labels, id)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == id {
				continue
			}
			wasNoise := labels[j] == Noise
			labels[j] = id
			if !wasNoise {
				continue // border point claimed from another cluster: keep new label, don't expand
			}
			neigh = idx.neighbors(neigh[:0], int(j), xs, ys)
			if len(neigh) >= p.MinPts {
				queue = appendUnlabelled(queue, neigh, labels, id)
			}
		}
	}

	if p.MergeDMTrials > 0 && p.MergeTime > 0 && nextID > 1 {
		nextID = mergeFragments(events, trials, labels, nextID, p)
	}

	return summarize(events, labels, nextID, key)
}

// appendUnlabelled appends to queue, in order, the points of neigh not yet
// labelled id.
func appendUnlabelled(queue, neigh []int32, labels []int, id int) []int32 {
	for _, j := range neigh {
		if labels[j] != id {
			queue = append(queue, j)
		}
	}
	return queue
}

// mergeFragments joins clusters whose bounding boxes are within the merge
// gaps of each other — the paper's artifact-repair pass. trials holds each
// event's trial-DM index. Returns the new cluster count after relabeling
// to dense ids.
func mergeFragments(events []spe.SPE, trials, labels []int, k int, p Params) int {
	type box struct {
		xLo, xHi float64 // trial-step units
		tLo, tHi float64
	}
	boxes := make([]box, k)
	for i := range boxes {
		boxes[i] = box{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	}
	for i, l := range labels {
		if l == Noise {
			continue
		}
		x := float64(trials[i])
		b := &boxes[l]
		b.xLo = math.Min(b.xLo, x)
		b.xHi = math.Max(b.xHi, x)
		b.tLo = math.Min(b.tLo, events[i].Time)
		b.tHi = math.Max(b.tHi, events[i].Time)
	}

	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	gap := func(lo1, hi1, lo2, hi2 float64) float64 {
		if hi1 < lo2 {
			return lo2 - hi1
		}
		if hi2 < lo1 {
			return lo1 - hi2
		}
		return 0
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if gap(boxes[a].xLo, boxes[a].xHi, boxes[b].xLo, boxes[b].xHi) <= p.MergeDMTrials &&
				gap(boxes[a].tLo, boxes[a].tHi, boxes[b].tLo, boxes[b].tHi) <= p.MergeTime {
				union(a, b)
			}
		}
	}

	// Relabel to dense ids, in order of first appearance.
	dense := make([]int, k)
	for i := range dense {
		dense[i] = -1
	}
	next := 0
	for i, l := range labels {
		if l == Noise {
			continue
		}
		r := find(l)
		if dense[r] < 0 {
			dense[r] = next
			next++
		}
		labels[i] = dense[r]
	}
	return next
}

func summarize(events []spe.SPE, labels []int, k int, key spe.Key) *Result {
	members := make([][]int, k)
	for i, l := range labels {
		if l != Noise {
			members[l] = append(members[l], i)
		}
	}
	clusters := make([]*spe.Cluster, k)
	for id, m := range members {
		group := make([]spe.SPE, len(m))
		for j, i := range m {
			group[j] = events[i]
		}
		clusters[id] = spe.Summarize(id, key, group)
	}
	spe.RankClusters(clusters)
	return &Result{Labels: labels, Clusters: clusters, Members: members}
}

// cellIndex is a uniform grid over the normalised coordinates, stored
// flat: with eps = 1 in both axes, all neighbours of a point live in its
// cell or the eight around it. Cells are numbered in order of first
// appearance; cell c's points are members[start[c]:start[c+1]] in
// ascending index, and around[c] names the cells at (dx, dy) for dx, then
// dy, in -1..1, or -1 where no point lies. Each cell is hashed once to
// number the points and eight times to link its neighbours, so a query
// reads arrays only.
type cellIndex struct {
	start   []int32
	members []int32
	of      []int32 // of[i] is point i's cell
	around  [][9]int32
}

func newCellIndex(xs, ys []float64) *cellIndex {
	n := len(xs)
	ci := &cellIndex{members: make([]int32, n), of: make([]int32, n)}
	ids := make(map[[2]int]int32, n/2+1)
	var cells [][2]int
	for i := range xs {
		c := [2]int{int(math.Floor(xs[i])), int(math.Floor(ys[i]))}
		id, ok := ids[c]
		if !ok {
			id = int32(len(cells))
			ids[c] = id
			cells = append(cells, c)
		}
		ci.of[i] = id
	}
	// Counting sort of the points by cell keeps each cell's in index order.
	ci.start = make([]int32, len(cells)+1)
	for _, c := range ci.of {
		ci.start[c+1]++
	}
	for c := range cells {
		ci.start[c+1] += ci.start[c]
	}
	fill := slices.Clone(ci.start[:len(cells)])
	for i, c := range ci.of {
		ci.members[fill[c]] = int32(i)
		fill[c]++
	}
	ci.around = make([][9]int32, len(cells))
	for c, cell := range cells {
		for o := range 9 {
			id, ok := ids[[2]int{cell[0] + o/3 - 1, cell[1] + o%3 - 1}]
			if !ok {
				id = -1
			}
			ci.around[c][o] = id
		}
	}
	return ci
}

// neighbors appends to dst the points within distance 1 of point i, itself
// included, in the order cellIndex documents.
func (ci *cellIndex) neighbors(dst []int32, i int, xs, ys []float64) []int32 {
	for _, c := range ci.around[ci.of[i]] {
		if c < 0 {
			continue
		}
		for _, j := range ci.members[ci.start[c]:ci.start[c+1]] {
			ddx, ddy := xs[j]-xs[i], ys[j]-ys[i]
			if ddx*ddx+ddy*ddy <= 1 {
				dst = append(dst, j)
			}
		}
	}
	return dst
}
