package sps

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// streamFixture is a compact observation with pulses spread over the DM
// range and an RFI burst, dense enough that boxcar chains and block
// boundaries interact.
func streamFixture(t testing.TB) *Filterbank {
	t.Helper()
	fb, err := Generate(SynthConfig{
		NChans: 64, NSamples: 8192, TsampSec: 256e-6,
		Seed: 41,
		Pulses: []InjectedPulse{
			{TimeSec: 0.25, DM: 15, WidthMs: 2, SNR: 14},
			{TimeSec: 0.60, DM: 55, WidthMs: 4, SNR: 18},
			{TimeSec: 0.95, DM: 95, WidthMs: 3, SNR: 22},
			{TimeSec: 1.30, DM: 130, WidthMs: 5, SNR: 12},
			{TimeSec: 1.70, DM: 160, WidthMs: 2.5, SNR: 16},
		},
		RFI: []RFIBurst{{TimeSec: 1.1, WidthMs: 4, Amp: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// requiredSweep reports the overlap a block stream of this search must
// carry and the per-trial sweeps, from the search's shift tables.
func requiredSweep(hdr Header, dms []float64, plan *SubbandPlan) (overlap int, perTrial []int) {
	tabs := buildShiftTables(hdr, dms, plan)
	return tabs.overlap, tabs.sweeps
}

// TestSearchStreamMatchesBatch is the equivalence gate of DESIGN.md §7:
// for both dedispersion plans, several block sizes (including one exactly
// at the sweep, one larger than the observation and MaxInt, whose gulp
// plus overlap must not wrap) and several worker counts, the streaming
// emission must be record-for-record identical to the batch search.
func TestSearchStreamMatchesBatch(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 180, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []PlanKind{PlanBrute, PlanSubband} {
		base := Config{DMs: dms, Threshold: 6, NormWindow: 512, ZeroDM: true, Plan: DedispersePlan{Kind: plan}}
		batch, batchStats, err := Search(context.Background(), fb, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatalf("plan %q: batch search found nothing to compare", plan)
		}
		sub, _, err := resolveDedisperse(fb.Header, dms, base.Plan)
		if err != nil {
			t.Fatal(err)
		}
		sweep, _ := requiredSweep(fb.Header, dms, sub)
		for _, block := range []int{sweep, sweep + 37, 1024, 4096, fb.NSamples, fb.NSamples + 999, math.MaxInt} {
			if block < 1 {
				continue
			}
			for _, workers := range []int{1, 4} {
				cfg := base
				cfg.BlockSamples = block
				cfg.Exec = rdd.ExecConfig{Workers: workers}
				got, stats, err := Search(context.Background(), fb, cfg)
				if err != nil {
					t.Fatalf("plan %q block %d workers %d: %v", plan, block, workers, err)
				}
				if !reflect.DeepEqual(got, batch) {
					t.Fatalf("plan %q block %d workers %d: stream diverges from batch (%d vs %d events)",
						plan, block, workers, len(got), len(batch))
				}
				if stats.Trials != batchStats.Trials || stats.Samples != batchStats.Samples || stats.Events != batchStats.Events {
					t.Fatalf("plan %q block %d workers %d: stats %+v != batch %+v", plan, block, workers, stats, batchStats)
				}
			}
		}
	}
}

// TestSearchStreamReaderMatchesBatch runs the io.Reader entry point — the
// path a live SIGPROC upload takes, including the 8-bit decode — against
// the batch search of the re-read filterbank.
func TestSearchStreamReaderMatchesBatch(t *testing.T) {
	fb := streamFixture(t)
	fb.NBits = 8 // quantised upload: exercises the block decoder
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	reread, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dms, err := LinearDMs(0, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DMs: dms, Threshold: 6, NormWindow: 512, BlockSamples: 1500}
	batch, _, err := Search(context.Background(), reread, Config{DMs: dms, Threshold: 6, NormWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	var got []spe.SPE
	var batches int
	hdr, stats, err := SearchStream(context.Background(), bytes.NewReader(buf.Bytes()), cfg, func(events []spe.SPE) error {
		batches++
		got = append(got, events...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hdr != reread.Header {
		t.Fatalf("stream header %+v != file header %+v", hdr, reread.Header)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("reader stream diverges from batch (%d vs %d events)", len(got), len(batch))
	}
	if batches < 2 {
		t.Fatalf("events arrived in %d batch(es); expected incremental emission", batches)
	}
	if stats.Events != len(batch) {
		t.Fatalf("stats.Events = %d, want %d", stats.Events, len(batch))
	}
}

// TestSearchStreamBlockTooSmall pins the clear error for a block smaller
// than the maximum dispersion sweep.
func TestSearchStreamBlockTooSmall(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 180, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := resolveDedisperse(fb.Header, dms, DedispersePlan{})
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := requiredSweep(fb.Header, dms, sub)
	if sweep < 2 {
		t.Fatalf("fixture sweep %d too small to test", sweep)
	}
	_, err = SearchFilterbank(context.Background(), fb, Config{DMs: dms, BlockSamples: sweep - 1}, func([]spe.SPE) error { return nil })
	if err == nil {
		t.Fatal("undersized block accepted")
	}
	if !strings.Contains(err.Error(), "dispersion sweep") {
		t.Fatalf("unhelpful undersized-block error: %v", err)
	}
}

// TestBlockReaderHugeBlock pins the overflow-safe gulp guard: block sizes
// near MaxInt (reachable straight off the network via the stream detect
// endpoint's block parameter) must error cleanly, never panic in makeslice
// or wrap into a silently tiny gulp.
func TestBlockReaderHugeBlock(t *testing.T) {
	fb := streamFixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{
		{math.MaxInt, 0},
		{math.MaxInt - 1, 2},
		{1, math.MaxInt},
		{maxSamples, maxSamples},
		{maxSamples/fb.NChans + 1, 0},
	} {
		if _, err := NewBlockReader(bytes.NewReader(buf.Bytes()), bad[0], bad[1]); err == nil {
			t.Errorf("NewBlockReader(block=%d, overlap=%d) accepted", bad[0], bad[1])
		}
	}
	// The same guard protects the whole streaming search (and hence the
	// HTTP endpoint): a huge BlockSamples is an error, not a panic.
	dms, err := LinearDMs(0, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = SearchStream(context.Background(), bytes.NewReader(buf.Bytes()),
		Config{DMs: dms, BlockSamples: math.MaxInt}, func([]spe.SPE) error { return nil })
	if err == nil {
		t.Fatal("MaxInt BlockSamples accepted")
	}
}

// TestSearchStreamCancel checks a context cancelled mid-stream stops the
// driver promptly with the context's error instead of draining the
// observation.
func TestSearchStreamCancel(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 180, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	_, err = SearchFilterbank(ctx, fb, Config{DMs: dms, BlockSamples: 1024, NormWindow: 256, Threshold: 2}, func([]spe.SPE) error {
		blocks++
		if blocks == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v", err)
	}
	if blocks > 3 {
		t.Fatalf("driver processed %d emissions after cancellation", blocks)
	}
}

// TestSearchStreamEmitError checks an emit failure (a departed HTTP
// client) aborts the search with that error.
func TestSearchStreamEmitError(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("consumer gone")
	_, err = SearchFilterbank(context.Background(), fb, Config{DMs: dms, BlockSamples: 1024, NormWindow: 256, Threshold: 2}, func([]spe.SPE) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// decodeBlock decodes every row of a block the reader yielded.
func decodeBlock(blk *Block, nchan int) []float32 {
	var scratch []float32
	return blk.values(0, blk.Rows, nchan, &scratch)
}

// TestBlockReaderGeometry walks gulps over a known observation and checks
// the overlap-carry invariants: starts advance by the block size, each
// block's raw bytes are exactly its rows, carried rows repeat the previous
// tail verbatim (every row decodes to Read's values for its sample), and
// the final block lands exactly on the observation end.
func TestBlockReaderGeometry(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, streamFixture(t)); err != nil {
		t.Fatal(err)
	}
	fb, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const block, overlap = 1000, 200
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()), block, overlap)
	if err != nil {
		t.Fatal(err)
	}
	if br.Header() != fb.Header {
		t.Fatalf("header %+v != %+v", br.Header(), fb.Header)
	}
	nchan := fb.NChans
	covered := 0
	k := 0
	for {
		blk, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if blk.Start != k*block {
			t.Fatalf("block %d starts at %d, want %d", k, blk.Start, k*block)
		}
		if blk.NBits != fb.NBits || len(blk.Raw) != blk.Rows*nchan*fb.NBits/8 {
			t.Fatalf("block %d has %d %d-bit bytes for %d rows", k, len(blk.Raw), blk.NBits, blk.Rows)
		}
		data := decodeBlock(blk, nchan)
		for r := 0; r < blk.Rows; r++ {
			at := blk.Start + r
			for ch := 0; ch < nchan; ch++ {
				if data[r*nchan+ch] != fb.Data[at*nchan+ch] {
					t.Fatalf("block %d row %d ch %d: %g != %g", k, r, ch, data[r*nchan+ch], fb.Data[at*nchan+ch])
				}
			}
		}
		covered = blk.Start + blk.Rows
		if blk.Last {
			if covered != fb.NSamples {
				t.Fatalf("last block ends at %d, want %d", covered, fb.NSamples)
			}
		}
		k++
	}
	if covered != fb.NSamples {
		t.Fatalf("blocks covered %d of %d samples", covered, fb.NSamples)
	}
}

// TestBlockReaderTruncation checks a header-declared sample count the body
// cannot supply errors instead of yielding a silent short block.
func TestBlockReaderTruncation(t *testing.T) {
	fb := streamFixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4096*4]
	br, err := NewBlockReader(bytes.NewReader(raw), 2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = br.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil {
		t.Fatal("truncated stream read to EOF without error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unhelpful truncation error: %v", err)
	}
}

// TestBlockReaderUnknownLength reads a stream whose header does not
// declare nsamples — the live-ingest case — deriving the length from EOF,
// and rejects a trailing partial sample.
func TestBlockReaderUnknownLength(t *testing.T) {
	fb := streamFixture(t)
	hdr := fb.Header
	hdr.NSamples = 0
	var buf bytes.Buffer
	if err := WriteHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	headerLen := buf.Len()
	full := &Filterbank{Header: fb.Header, Data: fb.Data}
	var body bytes.Buffer
	if err := Write(&body, full); err != nil {
		t.Fatal(err)
	}
	// Reuse the real data bytes behind the nsamples-free header.
	var hbuf bytes.Buffer
	if err := WriteHeader(&hbuf, fb.Header); err != nil {
		t.Fatal(err)
	}
	data := body.Bytes()[hbuf.Len():]
	buf.Write(data)

	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()), 3000, 100)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		blk, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total = blk.Start + blk.Rows
	}
	if total != fb.NSamples {
		t.Fatalf("unknown-length stream yielded %d samples, want %d", total, fb.NSamples)
	}

	// A trailing partial sample is an error, as in the batch reader.
	ragged := append([]byte(nil), buf.Bytes()[:headerLen+7]...)
	br, err = NewBlockReader(bytes.NewReader(ragged), 3000, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = br.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("ragged tail accepted: %v", err)
	}
}

// TestSearchStreamUnknownLength checks the driver handles a stream whose
// total length is only discovered at EOF, matching the batch search of
// the same data.
func TestSearchStreamUnknownLength(t *testing.T) {
	fb := streamFixture(t)
	hdr := fb.Header
	hdr.NSamples = 0
	var buf bytes.Buffer
	if err := WriteHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := Write(&full, fb); err != nil {
		t.Fatal(err)
	}
	var hbuf bytes.Buffer
	if err := WriteHeader(&hbuf, fb.Header); err != nil {
		t.Fatal(err)
	}
	buf.Write(full.Bytes()[hbuf.Len():])

	dms, err := LinearDMs(0, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := Search(context.Background(), fb, Config{DMs: dms, Threshold: 6, NormWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	var got []spe.SPE
	_, _, err = SearchStream(context.Background(), bytes.NewReader(buf.Bytes()),
		Config{DMs: dms, Threshold: 6, NormWindow: 512, BlockSamples: 1700},
		func(events []spe.SPE) error { got = append(got, events...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("unknown-length stream diverges from batch (%d vs %d events)", len(got), len(batch))
	}
}

// TestSearchStreamCarryEdges drives the per-trial carry state through the
// block sizes that stress it — a gulp equal to the sweep (the minimum the
// driver accepts), gulps smaller than the widest boxcar and than the
// normalisation window, and one that is not a multiple of the sub-chunk —
// over a ragged width ladder, and through an observation shorter than the
// normalisation window (the global-moments degeneration in finish). Every
// combination must reproduce the batch search exactly.
func TestSearchStreamCarryEdges(t *testing.T) {
	// Pulses inside the first and the last half-window put events where the
	// normaliser's start-clamped and end-clamped (flushed) windows apply.
	const nsamples, tsamp = 8192, 256e-6
	fb, err := Generate(SynthConfig{
		NChans: 64, NSamples: nsamples, TsampSec: tsamp, Seed: 43,
		Pulses: []InjectedPulse{
			{TimeSec: 60 * tsamp, DM: 5, WidthMs: 1.5, SNR: 20},
			{TimeSec: 1.0, DM: 12, WidthMs: 3, SNR: 16},
			{TimeSec: (nsamples - 130) * tsamp, DM: 8, WidthMs: 1.5, SNR: 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dms, err := LinearDMs(0, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 3, 5, 7, 13, 64}
	for _, plan := range []PlanKind{PlanBrute, PlanSubband} {
		sub, _, err := resolveDedisperse(fb.Header, dms, DedispersePlan{Kind: plan})
		if err != nil {
			t.Fatal(err)
		}
		sweep, _ := requiredSweep(fb.Header, dms, sub)
		if sweep < 1 || sweep >= widths[len(widths)-1] {
			t.Fatalf("plan %q: fixture sweep %d is not inside [1, maxW)", plan, sweep)
		}
		for _, window := range []int{512, fb.NSamples + 100} {
			base := Config{DMs: dms, Widths: widths, Threshold: 5, NormWindow: window, ZeroDM: true, Plan: DedispersePlan{Kind: plan}}
			batch, batchStats, err := Search(context.Background(), fb, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) == 0 || batch[0].Sample > 256 || batch[len(batch)-1].Sample < nsamples-256 {
				t.Fatalf("plan %q window %d: batch search has no events inside the first and last half-window", plan, window)
			}
			for _, block := range []int{sweep, 50, 300, streamChunk + 37} {
				for _, workers := range []int{1, 3} {
					cfg := base
					cfg.BlockSamples = block
					cfg.Exec = rdd.ExecConfig{Workers: workers}
					got, stats, err := Search(context.Background(), fb, cfg)
					if err != nil {
						t.Fatalf("plan %q window %d block %d workers %d: %v", plan, window, block, workers, err)
					}
					if !reflect.DeepEqual(got, batch) {
						t.Fatalf("plan %q window %d block %d workers %d: stream diverges from batch (%d vs %d events)",
							plan, window, block, workers, len(got), len(batch))
					}
					if stats.Trials != batchStats.Trials || stats.Samples != batchStats.Samples || stats.Events != batchStats.Events {
						t.Fatalf("plan %q window %d block %d workers %d: stats %+v != batch %+v", plan, window, block, workers, stats, batchStats)
					}
				}
			}
		}
	}
}

// TestStreamStateSizeBounded pins the bounded-memory claim of DESIGN.md §7
// at the level it is made: the float64s one trial carries between gulps
// number at most the normalisation window plus the widest boxcar (plus the
// two prefix totals and each width's previous sum), whatever the gulp size
// and however many gulps have gone by.
func TestStreamStateSizeBounded(t *testing.T) {
	const window = 2048
	widths := DefaultWidths()
	bound := (window + 1) + (widths[len(widths)-1] + 1) + 2 + len(widths)
	rng := rand.New(rand.NewSource(5))
	for _, block := range []int{1024, 16384} {
		st := &streamState{norm: newNormStream(window), box: newBoxStream(widths, DefaultThreshold)}
		var ks kernelScratch
		seg := make([]float64, block)
		for gulp := 1; gulp <= 32; gulp++ {
			for i := range seg {
				seg[i] = rng.NormFloat64()
			}
			st.feed(256e-6, seg, &ks)
			if gulp != 2 && gulp != 32 {
				continue
			}
			carried := len(st.norm.tail) + 2 + len(st.box.tail) + len(st.box.scans)
			if carried > bound {
				t.Fatalf("block %d gulp %d: trial carries %d float64s, want <= %d", block, gulp, carried, bound)
			}
			if carried < window {
				t.Fatalf("block %d gulp %d: trial carries %d float64s — the count misses the normalisation tail", block, gulp, carried)
			}
		}
	}
}

// TestSearchBoundsCarriedState pins the bound on a gulped search's carried
// state: trials × (NormWindow + the widest boxcar) may not exceed the values
// Read accepts for a whole observation, and an over-bound search is refused
// before any per-trial state exists — it allocates almost nothing. The
// one-gulp search holds no carries and runs the same config.
func TestSearchBoundsCarriedState(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, cfg := range map[string]Config{
		"window": {DMs: dms, NormWindow: 1 << 30, BlockSamples: 4096},
		"widths": {DMs: dms, NormWindow: 2048, Widths: []int{1, 2, 4, 1 << 30}, BlockSamples: 4096},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := SearchFilterbank(ctx, fb, cfg, func([]spe.SPE) error { return nil })
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("%s: err = %v, want the carried-state bound", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("%s: refusal allocated %d bytes, want it before any per-trial state", name, got)
		}
		cfg.BlockSamples = 0
		if _, _, err := Search(ctx, fb, cfg); err != nil {
			t.Fatalf("%s: one-gulp search: %v", name, err)
		}
	}
}

// TestSearchStreamZeroDMHoldsNoCopy pins the fused zero-DM filter on the
// stream: filtering is folded into each gulp's channel-major staging, so
// turning ZeroDM on must not cost a filtered copy of the gulp. The same
// search runs with the filter on and off and the difference in bytes
// allocated must stay under a quarter of one gulp's float32 block. GC is
// off while measuring, so pooled scratch stays pooled, and each side takes
// its best of three runs.
func TestSearchStreamZeroDMHoldsNoCopy(t *testing.T) {
	const nchans, block = 512, 4096
	fb, err := Generate(SynthConfig{
		NChans: nchans, NSamples: 3 * block, TsampSec: 256e-6, FoffMHz: -1, Seed: 47,
		Pulses: []InjectedPulse{{TimeSec: 1.5, DM: 8, WidthMs: 2, SNR: 15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dms, err := LinearDMs(0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(zeroDM bool) uint64 {
		cfg := Config{DMs: dms, NormWindow: 512, ZeroDM: zeroDM, BlockSamples: block,
			Plan: DedispersePlan{Kind: PlanBrute}, Exec: rdd.ExecConfig{Workers: 1}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := SearchFilterbank(context.Background(), fb, cfg, func([]spe.SPE) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	alloc(true) // warm the scratch pools
	alloc(false)
	on, off := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		on, off = min(on, alloc(true)), min(off, alloc(false))
	}
	gulp := uint64(4 * nchans * block)
	if on > off && on-off >= gulp/4 {
		t.Fatalf("ZeroDM allocates %d bytes more than without it (%.2f gulps of %d bytes): a filtered copy of the gulp",
			on-off, float64(on-off)/float64(gulp), gulp)
	}
}
