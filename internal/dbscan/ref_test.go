package dbscan

import (
	"math"

	"drapid/internal/dmgrid"
	"drapid/internal/spe"
)

// refCluster is the map-indexed Cluster the flat index replaced, kept
// verbatim as the oracle Cluster must equal.
func refCluster(events []spe.SPE, grid *dmgrid.Grid, key spe.Key, p Params) *Result {
	n := len(events)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return &Result{Labels: labels}
	}

	// Normalised coordinates: x in trial steps, y in eps-time units.
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, e := range events {
		xs[i] = float64(grid.IndexOf(e.DM)) / p.EpsDMTrials
		ys[i] = e.Time / p.EpsTime
	}
	idx := newRefCellIndex(xs, ys)

	// Standard DBSCAN with BFS expansion.
	nextID := 0
	queue := make([]int, 0, 64)
	for i := 0; i < n; i++ {
		if labels[i] != Noise {
			continue
		}
		neigh := idx.neighbors(i, xs, ys)
		if len(neigh) < p.MinPts {
			continue
		}
		id := nextID
		nextID++
		labels[i] = id
		queue = append(queue[:0], neigh...)
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
			jn := idx.neighbors(j, xs, ys)
			if len(jn) >= p.MinPts {
				queue = append(queue, jn...)
			}
		}
	}

	if p.MergeDMTrials > 0 && p.MergeTime > 0 && nextID > 1 {
		nextID = refMergeFragments(events, labels, grid, nextID, p)
	}

	return summarize(events, labels, nextID, key)
}

// refMergeFragments is refCluster's merge pass: it joins clusters whose
// bounding boxes are within the merge gaps of each other and returns the
// new cluster count after relabeling to dense ids.
func refMergeFragments(events []spe.SPE, labels []int, grid *dmgrid.Grid, k int, p Params) int {
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
		x := float64(grid.IndexOf(events[i].DM))
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
	var find func(int) int
	find = func(x int) int {
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

	// Relabel to dense ids.
	dense := make(map[int]int, k)
	next := 0
	for i, l := range labels {
		if l == Noise {
			continue
		}
		r := find(l)
		id, ok := dense[r]
		if !ok {
			id = next
			next++
			dense[r] = id
		}
		labels[i] = id
	}
	return next
}

// refCellIndex is refCluster's uniform-grid spatial hash over the
// normalised coordinates; with eps = 1 in both axes, all neighbors of a
// point live in its cell or the eight surrounding cells.
type refCellIndex struct {
	cells map[[2]int][]int
}

func newRefCellIndex(xs, ys []float64) *refCellIndex {
	ci := &refCellIndex{cells: make(map[[2]int][]int, len(xs)/2+1)}
	for i := range xs {
		c := [2]int{int(math.Floor(xs[i])), int(math.Floor(ys[i]))}
		ci.cells[c] = append(ci.cells[c], i)
	}
	return ci
}

func (ci *refCellIndex) neighbors(i int, xs, ys []float64) []int {
	cx, cy := int(math.Floor(xs[i])), int(math.Floor(ys[i]))
	var out []int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for _, j := range ci.cells[[2]int{cx + dx, cy + dy}] {
				ddx, ddy := xs[j]-xs[i], ys[j]-ys[i]
				if ddx*ddx+ddy*ddy <= 1 {
					out = append(out, j)
				}
			}
		}
	}
	return out
}
