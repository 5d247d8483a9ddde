package sps

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// This file is the search driver (DESIGN.md §7): the dedisperse →
// normalise → matched-filter pipeline over the observation as fixed-size
// blocks with the dispersion overlap carried between them, so peak memory
// is bounded by the block size (plus the sweep and the normalisation
// window) no matter how long the observation runs. One block holding the
// whole observation is the one-gulp search: each trial's whole series runs
// through Normalize's and BoxcarDetect's kernels directly. The contract is
// strict equivalence: for any block size and any worker count the emitted
// event stream is record-for-record identical to the one-gulp search,
// because every kernel carries exactly the state the whole-series
// computation would have had at the block boundary — the last NormWindow
// raw samples and their absolute prefix totals for Normalize, the last maxW
// normalised samples and the undecided scan positions for BoxcarDetect, and
// the overlap rows for the dedispersion kernels — and re-runs the same
// kernels over [carried tail | new segment] in worker-owned scratch.
// Per-trial state is O(NormWindow + maxW), independent of the gulp size and
// of the observation length, and the driver refuses a search whose carries
// would exceed the values Read accepts.

// DefaultNormWindow is the running-normalisation window (in samples) a
// gulped search substitutes when Config.NormWindow is zero: the one-gulp
// default — global moments — needs the whole series, which bounded-memory
// gulps cannot hold. Set NormWindow explicitly to compare the two
// event-for-event.
const DefaultNormWindow = 2048

// streamChunk is the length of the sub-chunks a gulp's dedispersed series
// is walked in: the tile every whole-series kernel walks too. The prefix
// sums and the boxcar ladder of one sub-chunk (plus the carried tails) live
// in worker-owned scratch (kernelScratch), so the kernels' working set stays
// L2-resident whatever the gulp size — BoxDIT's tile-sized partial sums
// owned by the compute unit, not by the series.
const streamChunk = tileSamples

// normStream is Normalize as an incremental state machine. Per trial it
// carries only the last min(n, window) raw samples and the absolute prefix
// sums of x and x² at the first of them; each feed re-accumulates the prefix
// sums of [tail | segment] sequentially from those totals in worker scratch —
// the same additions in the same order as the whole-series prefix pass, so
// the moments are bit-identical — and emits sample i as soon as its centred
// window fits in the data seen so far.
type normStream struct {
	window, half int
	n            int       // samples fed
	tail         []float64 // the last min(n, window) raw samples
	sum, sq      float64   // absolute prefix sums of x and x² at tail[0]
}

func newNormStream(window int) *normStream {
	return &normStream{window: window, half: window / 2}
}

// emitted is how many leading samples have a centred window that fits in the
// n fed so far: sample i needs max(0, i−half) + window <= n.
func (ns *normStream) emitted() int {
	if ns.n < ns.window {
		return 0
	}
	return ns.n - ns.window + ns.half + 1
}

// feed takes the next series segment and appends every newly decidable
// normalised sample to out.
func (ns *normStream) feed(seg []float64, ks *kernelScratch, out []float64) []float64 {
	base := ns.n - len(ns.tail) // absolute index of x[0]
	next := ns.emitted()
	x := append(append(ks.x[:0], ns.tail...), seg...)
	ks.x = x
	ns.n += len(seg)
	ks.nsum, ks.nsq = prefixSums(x, ns.sum, ns.sq, ks.nsum, ks.nsq)
	sum, sq := ks.nsum, ks.nsq
	end := ns.emitted()
	if next == 0 && end > 0 {
		// First emission (base is 0): the windows clamped to the series
		// start all span [0, window).
		mean, sd := windowMoments(sum, sq, 0, ns.window)
		for _, v := range x[:ns.half] {
			out = append(out, (v-mean)/sd)
		}
		next = ns.half
	}
	if m := end - next; m > 0 {
		// Sliding windows: sample next+k spans prefix indices
		// [lo+k, lo+k+window).
		lo := next - ns.half - base
		out = slices.Grow(out, m)
		dst := out[len(out):][:m]
		out = out[:len(out)+m]
		normalizeSliding(dst, x[next-base:][:m], sum[lo:], sq[lo:], ns.window)
	}
	t0 := len(x) - min(ns.n, ns.window)
	ns.sum, ns.sq = sum[t0], sq[t0]
	ns.tail = append(ns.tail[:0], x[t0:]...)
	return out
}

// finish flushes the unemitted samples with Normalize's end-clamped
// windows. Every one of them — the last window−half−1 samples, or the whole
// of a series shorter than the window (Normalize's global-moments
// degeneration) — is clamped to the same window: exactly the carried tail.
func (ns *normStream) finish(ks *kernelScratch, out []float64) []float64 {
	x := ns.tail
	if len(x) == 0 {
		return out
	}
	ks.nsum, ks.nsq = prefixSums(x, ns.sum, ns.sq, ks.nsum, ks.nsq)
	mean, sd := windowMoments(ks.nsum, ks.nsq, 0, len(x))
	for _, v := range x[ns.emitted()-(ns.n-len(x)):] {
		out = append(out, (v-mean)/sd)
	}
	return out
}

// rawScan is one boxcar width's scan state: the next undecided start
// position and the raw window sum at the position before it.
type rawScan struct {
	w         int
	rawThresh float64
	norm      float64
	next      int
	prev      float64
}

// boxStream is BoxcarDetect as an incremental state machine over the same
// BoxDIT ladder the whole-series detector runs (DESIGN.md §11). Per trial it
// carries only the last min(n, maxW) normalised samples, each width's scan
// state and the pending overlap chains; each feed rebuilds the window sums
// of [tail | new samples] with boxLadder.compute in the worker's ladder.
// Every S_w[t] comes from the unchanged splitWidth tree, whose value depends
// on w and the z-values only, never on the buffer offset, so decisions (made
// on the raw sums against threshold·√w, exactly the whole-series basis) are
// bit-identical. Each requested width decides start position t once the sum
// at t+1 is computable; the cross-width overlap merge resolves lazily:
// candidates stay pending until their whole overlap chain lies behind every
// width's scan frontier, at which point chain-local merging equals the
// whole series' global mergeDetections (windows never overlap across
// chains, and the greedy best-first suppression never interacts across
// disjoint windows).
type boxStream struct {
	widths  []int // requested widths (shared, read-only): the worker ladder's key
	scans   []rawScan
	n       int       // absolute z-samples fed
	tail    []float64 // the last min(n, maxW) normalised samples
	pending []Detection
	out     []Detection
}

// newScans returns the scan states of a fresh series, one per requested
// width, reusing buf.
func newScans(buf []rawScan, widths []int, threshold float64) []rawScan {
	buf = buf[:0]
	for _, w := range widths {
		buf = append(buf, rawScan{
			w:         w,
			rawThresh: threshold * math.Sqrt(float64(w)),
			norm:      1 / math.Sqrt(float64(w)),
			prev:      math.Inf(-1), // position 0 has no predecessor to lose to
		})
	}
	return buf
}

func newBoxStream(widths []int, threshold float64) *boxStream {
	return &boxStream{widths: widths, scans: newScans(nil, widths, threshold)}
}

// feed takes z = [carried tail | new normalised samples], advances every
// width's scan as far as the data allows — through BoxcarDetect's
// end-of-series rule when last — finalises the overlap chains that fell
// behind the frontier, and carries the new tail.
func (bs *boxStream) feed(z []float64, lad *boxLadder, last bool) {
	base := bs.n - len(bs.tail) // absolute index of z[0]
	bs.n = base + len(z)
	lad.compute(z)
	for i := range bs.scans {
		s := &bs.scans[i]
		end := bs.n - s.w // the last start position: decidable only by the end rule
		if end < s.next {
			continue // no new position (or, at finish, a width longer than the series)
		}
		sums := lad.sums[lad.idx[s.w]]
		bs.pending, s.prev = scanMaxima(bs.pending, sums, s.next-base, end-base, base, s.w, s.prev, s.rawThresh, s.norm)
		s.next = end
		if cur := sums[end-base]; last && cur >= s.rawThresh && cur >= s.prev {
			bs.pending = append(bs.pending, Detection{Start: end, Width: s.w, SNR: cur * s.norm})
		}
	}
	if last {
		bs.finalize(math.MaxInt)
		return
	}
	bs.finalize(bs.frontier())
	maxW := bs.widths[len(bs.widths)-1]
	bs.tail = append(bs.tail[:0], z[len(z)-min(bs.n, maxW):]...)
}

// frontier is the earliest start position any width has yet to decide —
// the lower bound on every future candidate's window start.
func (bs *boxStream) frontier() int {
	f := math.MaxInt
	for i := range bs.scans {
		if bs.scans[i].next < f {
			f = bs.scans[i].next
		}
	}
	return f
}

// horizon is the lower bound on the start of any candidate not yet
// finalised — pending or future — which is what bounds this trial's next
// possible event centre.
func (bs *boxStream) horizon() int {
	h := bs.frontier()
	for i := range bs.pending {
		if bs.pending[i].Start < h {
			h = bs.pending[i].Start
		}
	}
	return h
}

// finalize merges and releases every maximal chain of overlapping pending
// windows that ends before frontier. Chains are disjoint intervals in
// ascending order, so their chain-end positions ascend and the finalizable
// ones form a prefix.
func (bs *boxStream) finalize(frontier int) {
	if len(bs.pending) == 0 {
		return
	}
	slices.SortFunc(bs.pending, func(a, b Detection) int { return cmp.Compare(a.Start, b.Start) })
	done := 0
	lo, maxEnd := 0, bs.pending[0].Start+bs.pending[0].Width
	for k := 1; k <= len(bs.pending); k++ {
		if k < len(bs.pending) && bs.pending[k].Start < maxEnd {
			if end := bs.pending[k].Start + bs.pending[k].Width; end > maxEnd {
				maxEnd = end
			}
			continue
		}
		if maxEnd > frontier {
			break
		}
		bs.out = append(bs.out, mergeDetections(bs.pending[lo:k])...)
		done = k
		if k < len(bs.pending) {
			lo, maxEnd = k, bs.pending[k].Start+bs.pending[k].Width
		}
	}
	bs.pending = append(bs.pending[:0], bs.pending[done:]...)
}

// take returns the finalised detections accumulated since the last call;
// the returned slice is only valid until the next feed.
func (bs *boxStream) take() []Detection {
	d := bs.out
	bs.out = bs.out[:0]
	return d
}

// streamState is the persistent per-trial state of one streaming search:
// the normalisation and boxcar carries plus the finalised events awaiting
// the global watermark. It is O(NormWindow + maxW) floats whatever the gulp
// size and however long the observation runs; everything gulp-sized lives in
// the worker's kernelScratch.
type streamState struct {
	dm     float64
	sweep  int // trailing samples this trial's output loses to its dispersion sweep
	norm   *normStream
	box    *boxStream
	clock  *stageClock // shared per-search stage accumulator (nil-safe)
	fed    int64
	events []spe.SPE // finalised, centre-ascending, not yet emitted
}

// feed runs one dedispersed segment through normalise → boxcar → SPE
// conversion, sub-chunk by sub-chunk in the worker's scratch.
func (st *streamState) feed(tsamp float64, seg []float64, ks *kernelScratch) {
	st.fed += int64(len(seg))
	var norm, box time.Duration
	for len(seg) > 0 {
		m := min(len(seg), streamChunk)
		dn, db := st.step(seg[:m], ks, false)
		norm, box = norm+dn, box+db
		seg = seg[m:]
	}
	st.collect(tsamp, st.box.take())
	st.clock.add3(StageNormalise, norm, StageBoxcar, box, "", 0)
}

// finish flushes the normalisation tail and the final boxcar decisions.
func (st *streamState) finish(tsamp float64, ks *kernelScratch) {
	norm, box := st.step(nil, ks, true)
	st.collect(tsamp, st.box.take())
	st.clock.add3(StageNormalise, norm, StageBoxcar, box, "", 0)
}

// step advances both kernels by one sub-chunk (or, when last, by the
// normaliser's flushed tail) and returns the time each took.
func (st *streamState) step(seg []float64, ks *kernelScratch, last bool) (norm, box time.Duration) {
	t0 := time.Now()
	z := append(ks.z[:0], st.box.tail...)
	if last {
		z = st.norm.finish(ks, z)
	} else {
		z = st.norm.feed(seg, ks, z)
	}
	ks.z = z
	t1 := time.Now()
	ks.lad = ladderFor(ks.lad, st.box.widths)
	st.box.feed(z, ks.lad, last)
	return t1.Sub(t0), time.Since(t1)
}

// collect appends the finalised detections to the trial's events.
func (st *streamState) collect(tsamp float64, dets []Detection) {
	st.events = slices.Grow(st.events, len(dets))
	for _, d := range dets {
		c := d.Center()
		st.events = append(st.events, spe.SPE{
			DM: st.dm, SNR: d.SNR,
			Time: float64(c) * tsamp, Sample: int64(c), Downfact: d.Width,
		})
	}
}

// blockSource yields the gulps of one observation: BlockReader for byte
// streams, memSource for an observation already in memory.
type blockSource interface {
	Header() Header
	Next() (*Block, error)
}

// memSource serves obs, a whole in-memory observation, as zero-copy blocks.
type memSource struct {
	hdr     Header
	obs     Block
	block   int
	overlap int
	k       int
	done    bool
	cur     Block
}

func (ms *memSource) Header() Header { return ms.hdr }

func (ms *memSource) Next() (*Block, error) {
	if ms.done {
		return nil, io.EOF
	}
	n := ms.hdr.NSamples
	start := ms.k * ms.block
	if start >= n {
		ms.done = true
		return nil, io.EOF
	}
	rows := ms.block + ms.overlap
	if start+rows >= n {
		rows = n - start
		ms.done = true
	}
	ms.cur = Block{Start: start, Rows: rows, Last: ms.done, NBits: ms.obs.NBits}
	if nchan := ms.hdr.NChans; ms.obs.NBits == 0 {
		ms.cur.Data = ms.obs.Data[start*nchan : (start+rows)*nchan]
	} else {
		rowBytes := nchan * ms.obs.NBits / 8
		ms.cur.Raw = ms.obs.Raw[start*rowBytes : (start+rows)*rowBytes]
	}
	ms.k++
	return &ms.cur, nil
}

// blockSpan is the output region one block contributes to a trial losing
// sweep trailing samples: exactly the block's fresh extent mid-stream,
// clamped to the trial's final series length on the last block.
func blockSpan(blk *Block, block, sweep int) (int, int) {
	lo := blk.Start
	hi := blk.Start + block
	if blk.Last {
		hi = blk.Start + blk.Rows - sweep
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// emitReady drains every finalised event that can no longer be preceded by
// a future one — centre before the global watermark, the minimum over the
// carrying trials of each one's earliest possible unemitted event (a trial
// without carries has decided everything) — and hands them to emit in
// Search's output order (SortByTime: time ascending, ties by DM). The
// events are gathered in the driver-owned *batch, reused gulp after gulp:
// emit must not retain the slice.
func emitReady(trials []streamState, all bool, emit func([]spe.SPE) error, stats *Stats, batch *[]spe.SPE) error {
	out := (*batch)[:0]
	wm := int64(math.MaxInt64)
	if !all {
		for k := range trials {
			if box := trials[k].box; box != nil {
				wm = min(wm, int64(box.horizon()))
			}
		}
	}
	for k := range trials {
		st := &trials[k]
		n := 0
		for n < len(st.events) && st.events[n].Sample < wm {
			n++
		}
		if n > 0 {
			out = append(out, st.events[:n]...)
			st.events = append(st.events[:0], st.events[n:]...)
		}
	}
	*batch = out
	if len(out) == 0 {
		return nil
	}
	spe.SortByTime(out)
	stats.Events += len(out)
	return emit(out)
}

// searchBlockStream is the one search driver, behind Search,
// SearchFilterbank, SearchStream and SearchBlocks. It opens the block source
// once the required overlap is known, fans each block out on the rdd pool
// (per trial on the brute path, per nominal on the subband path, per time
// tile of each trial when a brute trial range is narrower than the pool —
// per-trial state is touched only by its own task, so any worker count folds
// identically), and emits watermark-ordered event batches between blocks.
// Only the trials of Config's range get state. A first block that is also
// the last — the one-gulp search — holds every trial's whole series, which
// runs through the whole-series kernels with no carries; any other block
// advances each trial's carries.
func searchBlockStream(ctx context.Context, hdr Header, open func(overlap int) (blockSource, error), cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats Stats
	if err := hdr.Validate(); err != nil {
		return stats, err
	}
	widths, threshold, sub, planDesc, err := resolveSearch(hdr, cfg)
	if err != nil {
		return stats, err
	}
	stats.Plan = planDesc
	if cfg.BlockSamples < 0 {
		return stats, fmt.Errorf("sps: BlockSamples must be >= 0, got %d", cfg.BlockSamples)
	}
	lo, hi := trialRange(cfg)
	window := cfg.NormWindow
	if cfg.BlockSamples > 0 {
		if window <= 0 {
			window = DefaultNormWindow
		}
		// Each trial may come to carry window raw and maxW normalised
		// samples; bound their total as Read bounds an observation.
		maxW := widths[len(widths)-1]
		if carry := min(window, maxSamples) + min(maxW, maxSamples); carry > maxSamples/(hi-lo) {
			return stats, fmt.Errorf("sps: %d trials carrying a %d-sample normalisation window and a %d-sample boxcar exceed %d values; search in one gulp (BlockSamples 0) or narrow them",
				hi-lo, window, maxW, maxSamples)
		}
	}
	tabs := buildShiftTables(hdr, cfg.DMs, sub)
	overlap := tabs.overlap
	if cfg.BlockSamples > 0 && cfg.BlockSamples < overlap {
		return stats, fmt.Errorf("sps: block of %d samples is smaller than the %d-sample dispersion sweep of trial DM %g; streaming needs BlockSamples >= %d",
			cfg.BlockSamples, overlap, cfg.DMs[len(cfg.DMs)-1], overlap)
	}
	sc := newStageClock()
	trials := make([]streamState, hi-lo)
	for k := range trials {
		trials[k] = streamState{dm: cfg.DMs[lo+k], sweep: tabs.sweeps[lo+k], clock: sc}
	}
	src, err := open(overlap)
	if err != nil {
		return stats, err
	}
	var groups [][]int
	if sub != nil {
		groups = sub.nominalGroups(lo, hi)
	}
	tsamp := hdr.TsampSec
	// detect runs trial st's output samples of the block through normalise
	// and boxcar: through the carries on a gulped search, or, without them,
	// as the whole series at once.
	detect := func(st *streamState, series []float64, ks *kernelScratch) {
		if st.norm != nil {
			st.feed(tsamp, series, ks)
			return
		}
		st.fed += int64(len(series))
		t0 := time.Now()
		ks.nsum, ks.nsq = normalizeInto(series, window, ks.nsum, ks.nsq)
		t1 := time.Now()
		ks.lad = ladderFor(ks.lad, widths)
		st.collect(tsamp, ks.lad.detect(series, threshold))
		sc.add3(StageNormalise, t1.Sub(t0), StageBoxcar, time.Since(t1), "", 0)
	}
	var batch []spe.SPE // emitReady's reused gather buffer
	// Each gulp is staged channel-major once and shared read-only by every
	// trial's (or nominal's) task, so the staging cost amortises over the
	// whole trial grid — and, through cfg.Staging, over every search of the
	// same observation.
	scratch := &chanMajor{}
	for {
		tRead := time.Now()
		blk, err := src.Next()
		sc.add(StageIngest, time.Since(tRead))
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		if blk.Start == 0 && !blk.Last {
			// A gulped search: every trial carries its kernels' state
			// from block to block.
			for k := range trials {
				trials[k].norm, trials[k].box = newNormStream(window), newBoxStream(widths, threshold)
			}
		}
		// The zero-DM filter fuses into the staging. Row means are per
		// row, so the carried overlap rows — raw bytes again in this gulp
		// — recompute bit-identically, and no row is ever filtered twice.
		cm, err := cfg.Staging.stage(ctx, cfg.Exec, blk, hdr.NChans, cfg.ZeroDM, sc, scratch)
		if err != nil {
			return stats, err
		}
		switch {
		case sub != nil:
			err = rdd.RunParallel(ctx, cfg.Exec, len(groups), func(k int) {
				if len(groups[k]) == 0 {
					return
				}
				bufs := subbandPool.Get().(*subbandBuffers)
				defer subbandPool.Put(bufs)
				td := time.Now()
				bufs.sub = sub.stage1(cm, tabs.nomCh[k], tabs.nomIntra[k], bufs.sub)
				dd := time.Since(td)
				for _, i := range groups[k] {
					st := &trials[i-lo]
					outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
					if outHi <= outLo {
						continue
					}
					tc := time.Now()
					bufs.combined = combine(bufs.sub, tabs.trialSub[i], blk.Start, outLo, outHi, bufs.combined)
					dd += time.Since(tc)
					detect(st, bufs.combined, &bufs.kernelScratch)
				}
				sc.add(StageDedisperse, dd)
			})
		case len(trials) < cfg.Exec.NumWorkers():
			err = searchTiled(ctx, cfg.Exec, cm, blk, cfg.BlockSamples, tabs.trialCh[lo:hi], trials, sc, detect)
		default:
			err = rdd.RunParallel(ctx, cfg.Exec, len(trials), func(k int) {
				st := &trials[k]
				outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
				if outHi <= outLo {
					return
				}
				bufs := trialPool.Get().(*trialBuffers)
				defer trialPool.Put(bufs)
				td := time.Now()
				bufs.series = dedisperse(cm, tabs.trialCh[lo+k], 0, cm.nchan, outLo-blk.Start, outHi-outLo, bufs.series)
				sc.add(StageDedisperse, time.Since(td))
				detect(st, bufs.series, &bufs.kernelScratch)
			})
		}
		if err != nil {
			return stats, err
		}
		if err := emitReady(trials, false, emit, &stats, &batch); err != nil {
			return stats, err
		}
	}
	if err := rdd.RunParallel(ctx, cfg.Exec, len(trials), func(k int) {
		if trials[k].norm == nil {
			return // the one gulp left nothing undecided
		}
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		trials[k].finish(tsamp, &bufs.kernelScratch)
	}); err != nil {
		return stats, err
	}
	if err := emitReady(trials, true, emit, &stats, &batch); err != nil {
		return stats, err
	}
	for _, st := range trials {
		stats.Samples += st.fed
		if st.fed > 0 {
			stats.Trials++
		}
	}
	stats.StageSeconds = sc.seconds()
	return stats, nil
}

// searchTiled is the brute path for trial ranges narrower than the worker
// pool: each trial's accumulation over the block fans out across the time
// tiles of its output span (tileRanges), so the workers stay busy even on
// a single trial. Tiles write disjoint output ranges and each output sample
// keeps the fixed ascending-channel accumulation order, so the series — and
// every downstream record — is bit-identical to the per-trial fan-out for
// any worker count.
func searchTiled(ctx context.Context, exec rdd.ExecConfig, cm *chanMajor, blk *Block, block int, shifts [][]int, trials []streamState, sc *stageClock, detect func(*streamState, []float64, *kernelScratch)) error {
	bufs := trialPool.Get().(*trialBuffers)
	defer trialPool.Put(bufs)
	for k := range trials {
		st := &trials[k]
		outLo, outHi := blockSpan(blk, block, st.sweep)
		if outHi <= outLo {
			continue
		}
		td := time.Now()
		n := outHi - outLo
		if cap(bufs.series) < n {
			bufs.series = make([]float64, n)
		}
		series := bufs.series[:n]
		clear(series)
		tiles := tileRanges(n)
		if err := rdd.RunParallel(ctx, exec, len(tiles), func(j int) {
			accumulate(cm, shifts[k], 0, cm.nchan, outLo-blk.Start, tiles[j][0], tiles[j][1], series)
		}); err != nil {
			return err
		}
		sc.add(StageDedisperse, time.Since(td))
		detect(st, series, &bufs.kernelScratch)
	}
	return nil
}

// SearchStream runs the streaming search over a SIGPROC byte stream —
// header parsed eagerly, data consumed in cfg.BlockSamples gulps — and
// emits event batches as blocks complete, in exactly the order (and with
// exactly the records) Search would return. The driver reuses one
// buffer for every batch: the slice passed to emit is only valid until emit
// returns, so a consumer that keeps events must copy them. The returned
// Header is available to emit callbacks only through closure over the first
// return of ReadHeader; callers that need it before the first batch should
// use ReadHeader + SearchBlocks directly.
func SearchStream(ctx context.Context, r io.Reader, cfg Config, emit func([]spe.SPE) error) (Header, Stats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := ReadHeader(br)
	if err != nil {
		return Header{}, Stats{}, err
	}
	stats, err := SearchBlocks(ctx, hdr, br, cfg, emit)
	return hdr, stats, err
}

// SearchBlocks is SearchStream for a reader already positioned at the
// first data byte of an observation with the given header — the entry
// point for callers (the engine, the HTTP stream endpoint) that parse the
// header first to derive keys and feature parameters. A reader is always
// gulped: BlockSamples must be >= 1. As with SearchStream, the batch is
// only valid until emit returns.
func SearchBlocks(ctx context.Context, hdr Header, data io.Reader, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	if cfg.BlockSamples < 1 {
		return Stats{}, fmt.Errorf("sps: streaming search needs BlockSamples >= 1, got %d", cfg.BlockSamples)
	}
	return searchBlockStream(ctx, hdr, func(overlap int) (blockSource, error) {
		return newBlockReaderAt(hdr, data, cfg.BlockSamples, overlap)
	}, cfg, emit)
}

// SearchFilterbank runs the search driver over a filterbank already in
// memory, serving it as zero-copy blocks of cfg.BlockSamples samples — or,
// when that is zero, as one block holding the whole observation. Search
// collects its batches. As with SearchStream, the batch is only valid
// until emit returns.
func SearchFilterbank(ctx context.Context, fb *Filterbank, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	return searchMem(ctx, fb.Header, Block{Data: fb.Data}, cfg, emit)
}

// SearchRaw is SearchFilterbank over ParseRaw's header and data bytes: the
// observation stays encoded, each staging tile decoding its own rows.
func SearchRaw(ctx context.Context, hdr Header, data []byte, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	return searchMem(ctx, hdr, Block{Raw: data, NBits: hdr.NBits}, cfg, emit)
}

// searchMem runs the driver over obs, the whole in-memory observation.
func searchMem(ctx context.Context, hdr Header, obs Block, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	have, want, unit := len(obs.Data), hdr.NSamples*hdr.NChans, "values"
	if obs.NBits != 0 {
		have, want, unit = len(obs.Raw), want*obs.NBits/8, "bytes"
	}
	if have != want {
		return Stats{}, fmt.Errorf("sps: data has %d %s, header says %d", have, unit, want)
	}
	// A gulp past the observation is the whole observation; clamping it
	// here keeps memSource's block+overlap from wrapping on a hostile size
	// (BlockSamples arrives off the network in a POST /v1/detect body).
	block := cfg.BlockSamples
	if block == 0 || block > hdr.NSamples {
		block = hdr.NSamples
	}
	return searchBlockStream(ctx, hdr, func(overlap int) (blockSource, error) {
		return &memSource{hdr: hdr, obs: obs, block: block, overlap: overlap}, nil
	}, cfg, emit)
}
