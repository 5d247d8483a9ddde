package sps

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Normalize converts the series to z-scores in place using a running mean
// and variance over a centred window of the given length (prefix sums make
// the pass O(n) for any window). window <= 0 or >= len(x) uses the global
// moments. A running window tracks the slow baseline drifts real receivers
// exhibit, so a detection threshold in normalised units stays meaningful
// across the observation; the variance floor guards flat (synthetic or
// clipped) stretches against division by ~zero.
func Normalize(x []float64, window int) {
	normalizeInto(x, window, nil, nil)
}

// normalizeInto is Normalize with caller-owned prefix-sum scratch: the two
// buffers are grown as needed and returned so pooled search paths reuse
// them across trials instead of allocating 2·(n+1) float64 per trial.
//
// The series splits into three regions by how sample i's centred window
// [i−half, i−half+window) meets the series ends. Windows clamped to the
// start all span [0, window) and windows clamped to the end [n−window, n),
// so each clamped region shares one mean and one square root — under
// global moments that is every sample. Only the region between slides, one
// window per sample (normalizeSliding).
func normalizeInto(x []float64, window int, sum, sq []float64) ([]float64, []float64) {
	n := len(x)
	if n == 0 {
		return sum, sq
	}
	if window <= 0 || window >= n {
		window = n
	}
	sum, sq = prefixSums(x, 0, 0, sum, sq)
	half := window / 2
	end := half + n - window // the first sample whose window is [n−window, n)
	mean, sd := windowMoments(sum, sq, 0, window)
	for i, v := range x[:half] {
		x[i] = (v - mean) / sd
	}
	normalizeSliding(x[half:end], x[half:end], sum, sq, window)
	mean, sd = windowMoments(sum, sq, n-window, n)
	for i, v := range x[end:] {
		x[end+i] = (v - mean) / sd
	}
	return sum, sq
}

// windowMoments returns the mean and standard deviation of the window
// [lo, hi) from prefix sums — the one definition of Normalize's moments,
// whole-series and carried; the variance floor guards flat stretches.
func windowMoments(sum, sq []float64, lo, hi int) (mean, sd float64) {
	w := float64(hi - lo)
	mean = (sum[hi] - sum[lo]) / w
	variance := (sq[hi]-sq[lo])/w - mean*mean
	if variance < 1e-12 {
		variance = 1e-12
	}
	return mean, math.Sqrt(variance)
}

// normalizeSliding writes dst[k] = (x[k] − mean)/sd under windowMoments of
// the window [k, k+window) of the prefix sums: one window per sample, no
// clamping. dst may alias x.
func normalizeSliding(dst, x, sum, sq []float64, window int) {
	dst = dst[:len(x)]
	for k, v := range x {
		mean, sd := windowMoments(sum, sq, k, k+window)
		dst[k] = (v - mean) / sd
	}
}

// prefixSums fills sum and sq (grown as needed, length len(x)+1) with the
// running sums of x and x² continued from the totals sum0 and sq0. The
// accumulation is strictly sequential, so a pass resumed mid-series from the
// totals carried at its first sample — the streaming normaliser — produces
// bit-for-bit the values of one pass over the whole series.
func prefixSums(x []float64, sum0, sq0 float64, sum, sq []float64) ([]float64, []float64) {
	n := len(x)
	if cap(sum) < n+1 {
		sum = make([]float64, n+1)
	}
	if cap(sq) < n+1 {
		sq = make([]float64, n+1)
	}
	sum, sq = sum[:n+1], sq[:n+1]
	sum[0], sq[0] = sum0, sq0
	for i, v := range x {
		sum[i+1] = sum[i] + v
		sq[i+1] = sq[i] + v*v
	}
	return sum, sq
}

// Detection is one matched-filter candidate in a dedispersed series: the
// boxcar width (in samples) and placement that maximised SNR.
type Detection struct {
	// Start is the first sample of the best boxcar window.
	Start int
	// Width is the boxcar width in samples (the Downfact of the event).
	Width int
	// SNR is sum(z[Start:Start+Width])/sqrt(Width) for the normalised
	// series z — the matched-filter significance.
	SNR float64
}

// Center returns the midpoint sample of the detection window.
func (d Detection) Center() int { return d.Start + d.Width/2 }

// BoxcarDetect runs multi-width boxcar matched filtering over a normalised
// series: for every width it scans the running boxcar SNR for local maxima
// above threshold, then merges detections whose windows overlap across
// widths, keeping the highest-SNR (best-matched) one. Widths are filtered
// to [1, len(z)] and deduplicated; results are ordered by Start.
//
// The window sums come from a hierarchical BoxDIT-style ladder (DESIGN.md
// §11): each width's sums are two shifted narrower-width sums added
// together, so the whole ladder costs one add per width per sample instead
// of a fresh prefix-sum scan per width. The recurrence fixes the
// floating-point summation tree of every window, which is what lets the
// carried boxcar reproduce whole-series decisions bit-for-bit: both run
// the identical ladder over identical z-values.
func BoxcarDetect(z []float64, widths []int, threshold float64) []Detection {
	clean := make([]int, 0, len(widths))
	seen := map[int]bool{}
	for _, w := range widths {
		if w >= 1 && !seen[w] {
			seen[w] = true
			clean = append(clean, w)
		}
	}
	sort.Ints(clean)
	return newBoxLadder(clean).detect(z, threshold)
}

// splitWidth decomposes a boxcar width w > 1 into the BoxDIT operand pair
// (a, b): a is the largest power of two below w (w/2 for powers of two)
// and b = w − a, so S_w[t] = S_a[t] + S_b[t+a]. Power-of-two ladders
// reduce to the classic decimation-in-time doubling; ragged widths reuse
// the power-of-two spine plus one remainder sum.
func splitWidth(w int) (a, b int) {
	a = 1
	for a*2 < w {
		a *= 2
	}
	return a, w - a
}

// boxLadder is the BoxDIT decomposition of one width ladder: the requested
// widths, the closure of operand widths the recurrence needs, and a
// per-width window-sum buffer reused across calls. One ladder serves one
// series length at a time and is cached in the pooled per-trial scratch.
type boxLadder struct {
	req    []int // requested widths, ascending, deduplicated, >= 1
	order  []int // closure widths ascending — operands precede users
	splitA []int // per order index: left operand width (0 for width 1)
	splitB []int // per order index: right operand width (0 for width 1)
	idx    map[int]int
	sums   [][]float64
	scans  []rawScan   // per-requested-width scan state of the series in detect
	cands  []Detection // scratch candidate list reused across calls
}

// newBoxLadder builds the ladder for an ascending deduplicated width list.
func newBoxLadder(widths []int) *boxLadder {
	need := map[int]bool{}
	var add func(w int)
	add = func(w int) {
		if need[w] {
			return
		}
		need[w] = true
		if w == 1 {
			return
		}
		a, b := splitWidth(w)
		add(a)
		add(b)
	}
	for _, w := range widths {
		add(w)
	}
	order := make([]int, 0, len(need))
	for w := range need {
		order = append(order, w)
	}
	// Operands are strictly narrower than their user, so ascending width
	// order is a valid evaluation order.
	sort.Ints(order)
	l := &boxLadder{
		req:    widths,
		order:  order,
		splitA: make([]int, len(order)),
		splitB: make([]int, len(order)),
		idx:    make(map[int]int, len(order)),
		sums:   make([][]float64, len(order)),
	}
	for i, w := range order {
		l.idx[w] = i
		if w > 1 {
			l.splitA[i], l.splitB[i] = splitWidth(w)
		}
	}
	return l
}

// ladderFor returns lad when it already decomposes exactly these widths,
// else a fresh ladder — the pooled-scratch reuse hook of the search paths.
func ladderFor(lad *boxLadder, widths []int) *boxLadder {
	if lad != nil && len(lad.req) == len(widths) {
		same := true
		for i, w := range widths {
			if lad.req[i] != w {
				same = false
				break
			}
		}
		if same {
			return lad
		}
	}
	return newBoxLadder(widths)
}

// compute fills the ladder's window sums over z: after it returns,
// sums[idx[w]][t] = Σ z[t:t+w] for every closure width w <= len(z). Width
// 1 aliases z itself; wider sums apply the splitWidth recurrence.
func (l *boxLadder) compute(z []float64) {
	n := len(z)
	for oi, w := range l.order {
		if w > n {
			return // ascending order: every later width is too wide too
		}
		if w == 1 {
			l.sums[oi] = z
			continue
		}
		m := n - w + 1
		buf := l.sums[oi]
		if cap(buf) < m {
			buf = make([]float64, m)
		}
		buf = buf[:m]
		sa := l.sums[l.idx[l.splitA[oi]]]
		sb := l.sums[l.idx[l.splitB[oi]]][l.splitA[oi]:]
		for t := range buf {
			buf[t] = sa[t] + sb[t]
		}
		l.sums[oi] = buf
	}
}

// detect runs the matched-filter scan over z. Decisions (threshold
// crossing, local-maximum shape) are made on the raw window sums against
// threshold·√w — one multiply per width rather than per sample, and the
// exact basis the streaming boxcar replays — and the emitted SNR is sum/√w
// as ever. Start positions are walked in tileSamples tiles: the ladder
// computes the window sums of one tile plus its maxW-sample lookahead,
// every requested width scans the tile's positions with scanMaxima
// (carrying the sum before the tile as prev), and the end-of-series rule —
// the last start position has no successor to lose to — applies once, in
// the tile that holds it. The ladder's sums are therefore tile-sized
// whatever the series length. The returned slice aliases the ladder's
// candidate scratch; callers convert or copy before the ladder's next use.
func (l *boxLadder) detect(z []float64, threshold float64) []Detection {
	n := len(z)
	if len(l.req) == 0 {
		return nil
	}
	maxW := l.req[len(l.req)-1]
	l.scans = newScans(l.scans, l.req, threshold)
	cands := l.cands[:0]
	for t0 := 0; t0 < n; t0 += tileSamples {
		t1 := min(t0+tileSamples, n)
		l.compute(z[t0:min(t1+maxW, n)])
		for i := range l.scans {
			s := &l.scans[i]
			last := n - s.w // the last start position
			if last < t0 {
				break // widths ascend: every wider one is past its last start too
			}
			sums := l.sums[l.idx[s.w]]
			cands, s.prev = scanMaxima(cands, sums, 0, min(t1, last)-t0, t0, s.w, s.prev, s.rawThresh, s.norm)
			if last >= t1 {
				continue
			}
			if cur := sums[last-t0]; cur >= s.rawThresh && cur >= s.prev {
				cands = append(cands, Detection{Start: last, Width: s.w, SNR: cur * s.norm})
			}
		}
	}
	l.cands = cands
	return mergeDetections(cands)
}

// scanMaxima applies BoxcarDetect's mid-series local-maximum rule to the
// start positions [lo, hi) of one width's window sums s — every position
// has its successor, so hi < len(s) — and appends the maxima to cands with
// Start offset by off. prev is the sum at lo−1 (−Inf at the series start);
// the returned float is the sum at hi−1, the next call's prev.
func scanMaxima(cands []Detection, s []float64, lo, hi, off, w int, prev, raw, norm float64) ([]Detection, float64) {
	cur := s[lo]
	for t, next := range s[lo+1 : hi+1] {
		if cur >= raw && cur >= prev && cur > next {
			cands = append(cands, Detection{Start: off + lo + t, Width: w, SNR: cur * norm})
		}
		prev, cur = cur, next
	}
	return cands, prev
}

// mergeDetections suppresses overlapping windows across widths: detections
// are considered best-first and any later one whose window intersects a
// kept window is discarded. The tie-break (SNR desc, start asc, width asc)
// makes the outcome deterministic. The survivors are compacted into the
// front of cands, which the result aliases.
func mergeDetections(cands []Detection) []Detection {
	if len(cands) < 2 {
		return cands
	}
	slices.SortFunc(cands, func(a, b Detection) int {
		return cmp.Or(cmp.Compare(b.SNR, a.SNR), cmp.Compare(a.Start, b.Start), cmp.Compare(a.Width, b.Width))
	})
	kept := cands[:0]
	for _, c := range cands {
		clear := true
		for _, k := range kept {
			if c.Start < k.Start+k.Width && k.Start < c.Start+c.Width {
				clear = false
				break
			}
		}
		if clear {
			kept = append(kept, c)
		}
	}
	slices.SortFunc(kept, func(a, b Detection) int { return cmp.Compare(a.Start, b.Start) })
	return kept
}

// validWidths normalises a boxcar width ladder: positive, ascending,
// deduplicated. An empty input takes DefaultWidths.
func validWidths(widths []int) ([]int, error) {
	if len(widths) == 0 {
		widths = DefaultWidths()
	}
	out := make([]int, 0, len(widths))
	seen := map[int]bool{}
	for _, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("sps: boxcar width %d must be >= 1", w)
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out, nil
}

// DefaultWidths is the octave boxcar ladder single-pulse searches
// conventionally use (PRESTO's downfact ladder).
func DefaultWidths() []int { return []int{1, 2, 4, 8, 16, 32, 64} }
