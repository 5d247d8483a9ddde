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

// This file is the streaming half of the search frontend (DESIGN.md §7):
// the same dedisperse → normalise → matched-filter pipeline as Search, but
// consuming the observation as fixed-size blocks with the dispersion
// overlap carried between them, so peak memory is bounded by the block
// size (plus the sweep and the normalisation window) no matter how long
// the observation runs. The contract is strict equivalence: for any block
// size and any worker count the emitted event stream is record-for-record
// identical to the batch path, because every kernel carries exactly the
// state the batch computation would have had at the block boundary — the
// last NormWindow raw samples and their absolute prefix totals for
// Normalize, the last maxW normalised samples and the undecided scan
// positions for BoxcarDetect, and the overlap rows for the dedispersion
// kernels — and re-runs the batch kernels over [carried tail | new segment]
// in worker-owned scratch. Per-trial state is O(NormWindow + maxW),
// independent of the gulp size and of the observation length.

// DefaultNormWindow is the running-normalisation window (in samples) the
// streaming driver substitutes when Config.NormWindow is zero: the batch
// default — global moments — needs the whole series, which bounded-memory
// streaming cannot hold. Set NormWindow explicitly to compare the two
// paths event-for-event.
const DefaultNormWindow = 2048

// streamChunk is the length of the sub-chunks a gulp's dedispersed series
// is walked in: the tile every batch kernel walks too. The prefix sums and
// the boxcar ladder of one sub-chunk (plus the carried tails) live in
// worker-owned scratch (kernelScratch), so the kernels' working set stays
// L2-resident whatever the gulp size — BoxDIT's tile-sized partial sums
// owned by the compute unit, not by the series.
const streamChunk = tileSamples

// normStream is Normalize as an incremental state machine. Per trial it
// carries only the last min(n, window) raw samples and the absolute prefix
// sums of x and x² at the first of them; each feed re-accumulates the prefix
// sums of [tail | segment] sequentially from those totals in worker scratch —
// the same additions in the same order as the batch prefix pass, so the
// moments are bit-identical — and emits sample i as soon as its centred
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
// of a series shorter than the window (the batch path's global-moments
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
// BoxDIT ladder the batch detector runs (DESIGN.md §11). Per trial it
// carries only the last min(n, maxW) normalised samples, each width's scan
// state and the pending overlap chains; each feed rebuilds the window sums
// of [tail | new samples] with boxLadder.compute in the worker's ladder.
// Every S_w[t] comes from the unchanged splitWidth tree, whose value depends
// on w and the z-values only, never on the buffer offset, so decisions (made
// on the raw sums against threshold·√w, exactly the batch basis) are
// bit-identical. Each requested width decides start position t once the sum
// at t+1 is computable; the cross-width overlap merge resolves lazily:
// candidates stay pending until their whole overlap chain lies behind every
// width's scan frontier, at which point chain-local merging equals the batch
// path's global mergeDetections (windows never overlap across chains, and
// the greedy best-first suppression never interacts across disjoint
// windows).
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
	st.collect(tsamp)
	st.clock.add3(StageNormalise, norm, StageBoxcar, box, "", 0)
}

// finish flushes the normalisation tail and the final boxcar decisions.
func (st *streamState) finish(tsamp float64, ks *kernelScratch) {
	norm, box := st.step(nil, ks, true)
	st.collect(tsamp)
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

func (st *streamState) collect(tsamp float64) {
	for _, d := range st.box.take() {
		c := d.Center()
		st.events = append(st.events, spe.SPE{
			DM: st.dm, SNR: d.SNR,
			Time: float64(c) * tsamp, Sample: int64(c), Downfact: d.Width,
		})
	}
}

// blockSource yields the gulps of one observation: BlockReader for byte
// streams, memSource for a filterbank already in memory.
type blockSource interface {
	Header() Header
	Next() (*Block, error)
}

// memSource serves an in-memory filterbank as zero-copy blocks.
type memSource struct {
	fb      *Filterbank
	block   int
	overlap int
	k       int
	done    bool
	cur     Block
}

func (ms *memSource) Header() Header { return ms.fb.Header }

func (ms *memSource) Next() (*Block, error) {
	if ms.done {
		return nil, io.EOF
	}
	n := ms.fb.NSamples
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
	fresh := ms.overlap
	if ms.k == 0 {
		fresh = 0
	}
	ms.cur = Block{
		Start: start, Rows: rows, Fresh: fresh, Last: ms.done,
		Data: ms.fb.Data[start*ms.fb.NChans : (start+rows)*ms.fb.NChans],
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
// a future one — centre before the global watermark, the minimum over
// trials of each trial's earliest possible unemitted event — and hands
// them to emit in the batch path's exact output order (SortByTime: time
// ascending, ties by DM). The events are gathered in the driver-owned
// *batch, reused gulp after gulp: emit must not retain the slice.
func emitReady(trials []*streamState, all bool, emit func([]spe.SPE) error, stats *Stats, batch *[]spe.SPE) error {
	out := (*batch)[:0]
	wm := int64(math.MaxInt64)
	if !all {
		for _, st := range trials {
			if h := int64(st.box.horizon()); h < wm {
				wm = h
			}
		}
	}
	for _, st := range trials {
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

// searchBlockStream is the streaming driver shared by SearchStream,
// SearchBlocks, SearchFilterbank and Search-with-BlockSamples: it opens
// the block source once the required overlap is known, fans each block out
// on the rdd pool (per trial on the brute path, per nominal on the subband
// path — per-trial state is touched only by its own task, so any worker
// count folds identically), and emits watermark-ordered event batches
// between blocks.
func searchBlockStream(ctx context.Context, hdr Header, open func(overlap int) (blockSource, error), cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats Stats
	if err := hdr.Validate(); err != nil {
		return stats, err
	}
	if cfg.TrialLo != 0 || cfg.TrialHi != 0 {
		return stats, fmt.Errorf("sps: the streaming search does not support a trial range (TrialLo/TrialHi); restrict batch searches only")
	}
	widths, threshold, sub, planDesc, err := resolveSearch(hdr, cfg)
	if err != nil {
		return stats, err
	}
	stats.Plan = planDesc
	tabs := buildShiftTables(hdr, cfg.DMs, sub)
	overlap := tabs.overlap
	if cfg.BlockSamples < 1 {
		return stats, fmt.Errorf("sps: streaming search needs BlockSamples >= 1, got %d", cfg.BlockSamples)
	}
	if cfg.BlockSamples < overlap {
		return stats, fmt.Errorf("sps: block of %d samples is smaller than the %d-sample dispersion sweep of trial DM %g; streaming needs BlockSamples >= %d",
			cfg.BlockSamples, overlap, cfg.DMs[len(cfg.DMs)-1], overlap)
	}
	window := cfg.NormWindow
	if window <= 0 {
		window = DefaultNormWindow
	}
	sc := newStageClock()
	trials := make([]*streamState, len(cfg.DMs))
	for i, dm := range cfg.DMs {
		trials[i] = &streamState{dm: dm, sweep: tabs.sweeps[i], norm: newNormStream(window), box: newBoxStream(widths, threshold), clock: sc}
	}
	src, err := open(overlap)
	if err != nil {
		return stats, err
	}
	var groups [][]int
	if sub != nil {
		groups = sub.nominalGroups()
	}
	var batch []spe.SPE // emitReady's reused gather buffer
	// Each gulp is staged channel-major once and shared read-only by every
	// trial's (or nominal's) task — the staging cost amortises over the
	// whole trial grid exactly as on the batch path.
	cm := &chanMajor{}
	tsamp := hdr.TsampSec
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
		// The zero-DM filter fuses into the staging as on the batch path.
		// Row means are per row, so the carried overlap rows — raw bytes
		// again in this gulp — recompute bit-identically, and no row is
		// ever filtered twice.
		if err := cm.stage(ctx, cfg.Exec, blk.Data, blk.Rows, hdr.NChans, cfg.ZeroDM, sc); err != nil {
			return stats, err
		}
		if sub != nil {
			err = rdd.RunParallel(ctx, cfg.Exec, len(groups), func(k int) {
				if len(groups[k]) == 0 {
					return
				}
				bufs := subbandPool.Get().(*subbandBuffers)
				defer subbandPool.Put(bufs)
				td := time.Now()
				bufs.sub = sub.stage1(cm, tabs.nomCh[k], tabs.nomIntra[k], bufs.sub)
				var dd time.Duration = time.Since(td)
				for _, i := range groups[k] {
					st := trials[i]
					outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
					if outHi <= outLo {
						continue
					}
					tc := time.Now()
					bufs.combined = combine(bufs.sub, tabs.trialSub[i], blk.Start, outLo, outHi, bufs.combined)
					dd += time.Since(tc)
					st.feed(tsamp, bufs.combined, &bufs.kernelScratch)
				}
				sc.add(StageDedisperse, dd)
			})
		} else {
			err = rdd.RunParallel(ctx, cfg.Exec, len(trials), func(i int) {
				st := trials[i]
				outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
				if outHi <= outLo {
					return
				}
				bufs := trialPool.Get().(*trialBuffers)
				defer trialPool.Put(bufs)
				td := time.Now()
				bufs.series = dedisperse(cm, tabs.trialCh[i], 0, cm.nchan, outLo-blk.Start, outHi-outLo, bufs.series)
				sc.add(StageDedisperse, time.Since(td))
				st.feed(tsamp, bufs.series, &bufs.kernelScratch)
			})
		}
		if err != nil {
			return stats, err
		}
		if err := emitReady(trials, false, emit, &stats, &batch); err != nil {
			return stats, err
		}
	}
	if err := rdd.RunParallel(ctx, cfg.Exec, len(trials), func(i int) {
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		trials[i].finish(tsamp, &bufs.kernelScratch)
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

// SearchStream runs the streaming search over a SIGPROC byte stream —
// header parsed eagerly, data consumed in cfg.BlockSamples gulps — and
// emits event batches as blocks complete, in exactly the order (and with
// exactly the records) the batch Search would return. The driver reuses one
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
// header first to derive keys and feature parameters. As with SearchStream,
// the batch is only valid until emit returns.
func SearchBlocks(ctx context.Context, hdr Header, data io.Reader, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	return searchBlockStream(ctx, hdr, func(overlap int) (blockSource, error) {
		return newBlockReaderAt(hdr, data, cfg.BlockSamples, overlap)
	}, cfg, emit)
}

// SearchFilterbank runs the streaming driver over a filterbank already in
// memory, serving it as zero-copy blocks — the path Search takes when
// cfg.BlockSamples is set, and the cheapest way to check stream/batch
// equivalence. As with SearchStream, the batch is only valid until emit
// returns.
func SearchFilterbank(ctx context.Context, fb *Filterbank, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	var stats Stats
	if err := fb.Validate(); err != nil {
		return stats, err
	}
	if len(fb.Data) != fb.NSamples*fb.NChans {
		return stats, fmt.Errorf("sps: data has %d values, header says %d", len(fb.Data), fb.NSamples*fb.NChans)
	}
	return searchBlockStream(ctx, fb.Header, func(overlap int) (blockSource, error) {
		return &memSource{fb: fb, block: cfg.BlockSamples, overlap: overlap}, nil
	}, cfg, emit)
}
