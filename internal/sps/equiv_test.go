package sps

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// This file is the property-based gate on the search kernels: for randomly
// drawn but valid observations — channel count, sampling, band direction
// and bit depth all vary — the search in one gulp or in random gulps, over
// the whole grid or a trial range, at any worker count must emit record-for-record what refSearch,
// the per-sample reference search of ref_test.go, emits. The kernels
// preserve the reference loops' ascending-channel accumulation order and
// summation trees, so the equality below is exact (bit-for-bit), not
// approximate.

// equivCase is one randomly drawn observation plus the base search
// configuration shared by the oracle and every variant.
type equivCase struct {
	fb   *Filterbank
	base Config
}

// randomEquivCase draws a random valid case. The DM grid is sized so the
// worst trial's sweep stays well inside the observation (streaming needs
// a block covering the sweep); the boxcar ladder is ragged so the BoxDIT
// decomposition exercises non-power-of-two splits; half the cases round-
// trip through the 8-bit SIGPROC encoding so the search and the reference
// both consume the quantised decode.
func randomEquivCase(t *testing.T, rng *rand.Rand) equivCase {
	t.Helper()
	nchans := []int{1, 2, 3, 7, 16, 33, 64}[rng.Intn(7)]
	nsamples := 2048 + rng.Intn(2048)
	tsamp := []float64{128e-6, 256e-6, 512e-6}[rng.Intn(3)]
	foff := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
	scfg := SynthConfig{
		NChans: nchans, NSamples: nsamples, TsampSec: tsamp,
		Fch1MHz: 1500, FoffMHz: -foff,
		Seed: rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		// Ascending band: fch1 becomes the bottom of the same span, so the
		// reference (top) channel is the last one.
		scfg.Fch1MHz, scfg.FoffMHz = 1500-float64(nchans-1)*foff, foff
	}
	h := scfg.Header()

	step := float64(2 + rng.Intn(3))
	dmHi := 150.0
	for dmHi > step && MaxShift(h, dmHi) > nsamples/3 {
		dmHi /= 2
	}
	dms, err := LinearDMs(0, dmHi, step)
	if err != nil {
		t.Fatal(err)
	}

	// Inject pulses inside the grid so the comparison covers real
	// detections (chains, merges), not just empty outputs.
	span := float64(nsamples) * tsamp
	for i := 0; i < 2+rng.Intn(3); i++ {
		scfg.Pulses = append(scfg.Pulses, InjectedPulse{
			TimeSec: (0.1 + 0.5*rng.Float64()) * span,
			DM:      rng.Float64() * dmHi,
			WidthMs: (2 + 6*rng.Float64()) * tsamp * 1e3,
			SNR:     10 + 10*rng.Float64(),
		})
	}
	fb, err := Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		fb.NBits = 8
		var buf bytes.Buffer
		if err := Write(&buf, fb); err != nil {
			t.Fatal(err)
		}
		if fb, err = Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}

	widthPool := []int{1, 2, 3, 5, 7, 9, 12, 16, 21, 32, 50, 64}
	rng.Shuffle(len(widthPool), func(i, j int) { widthPool[i], widthPool[j] = widthPool[j], widthPool[i] })
	widths := append([]int(nil), widthPool[:3+rng.Intn(3)]...)

	return equivCase{fb: fb, base: Config{
		DMs: dms, Widths: widths,
		Threshold:  5,
		NormWindow: []int{256, 512, 1024}[rng.Intn(3)],
		ZeroDM:     rng.Intn(2) == 0,
	}}
}

func withWorkers(cfg Config, n int) Config {
	cfg.Exec = rdd.ExecConfig{Workers: n}
	return cfg
}

// TestKernelEquivalenceRandom sweeps random cases through both plans and
// asserts that the one-gulp search (any worker count), the tiled
// single-trial split, and gulped searches (random block sizes, worker
// counts and trial ranges) all reproduce the reference search exactly.
func TestKernelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	iters := 8
	if testing.Short() {
		iters = 3
	}
	totalEvents, smallBlocks := 0, 0
	for it := 0; it < iters; it++ {
		ec := randomEquivCase(t, rng)
		for _, plan := range []PlanKind{PlanBrute, PlanSubband} {
			tag := fmt.Sprintf("iter %d plan %q nchans %d nbits %d foff %g",
				it, plan, ec.fb.NChans, ec.fb.NBits, ec.fb.FoffMHz)

			oracle := ec.base
			oracle.Plan = DedispersePlan{Kind: plan}
			want, wantStats, err := refSearch(ec.fb, oracle)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tag, err)
			}
			totalEvents += len(want)

			check := func(label string, cfg Config) {
				got, stats, err := Search(context.Background(), ec.fb, cfg)
				if err != nil {
					t.Fatalf("%s: %s: %v", tag, label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s: events diverge from the reference search (%d vs %d)",
						tag, label, len(got), len(want))
				}
				if stats.Trials != wantStats.Trials || stats.Samples != wantStats.Samples || stats.Events != wantStats.Events {
					t.Fatalf("%s: %s: stats %+v != oracle %+v", tag, label, stats, wantStats)
				}
			}

			check("batch workers=1", withWorkers(oracle, 1))
			check("batch workers=n", withWorkers(oracle, 2+rng.Intn(6)))

			sub, _, err := resolveDedisperse(ec.fb.Header, ec.base.DMs, oracle.Plan)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sweep, _ := requiredSweep(ec.fb.Header, ec.base.DMs, sub)
			for leg := 0; leg < 2; leg++ {
				cfg := oracle
				cfg.BlockSamples = sweep + 1 + rng.Intn(ec.fb.NSamples)
				cfg.Exec = rdd.ExecConfig{Workers: 1 + rng.Intn(4)}
				check(fmt.Sprintf("stream leg %d block=%d", leg, cfg.BlockSamples), cfg)
			}
			// One gulp size below the normalisation window, so the
			// normaliser's carried tail spans several gulps.
			if lo := max(sweep, 1); lo < ec.base.NormWindow {
				cfg := ec.base
				cfg.Plan = DedispersePlan{Kind: plan}
				cfg.BlockSamples = lo + rng.Intn(ec.base.NormWindow-lo)
				cfg.Exec = rdd.ExecConfig{Workers: 1 + rng.Intn(4)}
				check(fmt.Sprintf("stream block=%d below window %d", cfg.BlockSamples, ec.base.NormWindow), cfg)
				smallBlocks++
			}

			// A single-trial restriction against a wide pool drives the
			// time-tiled split (searchTiled); its oracle is the reference
			// search under the same restriction.
			res := oracle
			res.TrialLo = rng.Intn(len(ec.base.DMs))
			res.TrialHi = res.TrialLo + 1
			wantR, _, err := refSearch(ec.fb, res)
			if err != nil {
				t.Fatalf("%s: restricted oracle: %v", tag, err)
			}
			res.Exec = rdd.ExecConfig{Workers: 4}
			gotR, _, err := Search(context.Background(), ec.fb, res)
			if err != nil {
				t.Fatalf("%s: restricted search: %v", tag, err)
			}
			if !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("%s: tiled single-trial search diverges from the reference search (%d vs %d events)",
					tag, len(gotR), len(wantR))
			}

			// Gulped searches under a restriction: a random contiguous range
			// at least as wide as the pool (the per-trial or per-nominal
			// fan-out), and one narrower than the pool, so the brute plan's
			// tiled split runs gulp after gulp.
			for _, narrow := range []bool{false, true} {
				res := oracle
				res.TrialLo = rng.Intn(len(ec.base.DMs))
				width := 1 + rng.Intn(len(ec.base.DMs)-res.TrialLo)
				workers := 1 + rng.Intn(width)
				if narrow {
					width = min(width, 3)
					workers = width + 1 + rng.Intn(3)
				}
				res.TrialHi = res.TrialLo + width
				wantR, wantRStats, err := refSearch(ec.fb, res)
				if err != nil {
					t.Fatalf("%s: restricted oracle: %v", tag, err)
				}
				res.BlockSamples = sweep + 1 + rng.Intn(ec.fb.NSamples/4)
				res.Exec = rdd.ExecConfig{Workers: workers}
				label := fmt.Sprintf("gulped range [%d, %d) workers=%d block=%d", res.TrialLo, res.TrialHi, workers, res.BlockSamples)
				gotR, stats, err := Search(context.Background(), ec.fb, res)
				if err != nil {
					t.Fatalf("%s: %s: %v", tag, label, err)
				}
				if !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("%s: %s: events diverge from the reference search (%d vs %d)", tag, label, len(gotR), len(wantR))
				}
				if stats.Trials != wantRStats.Trials || stats.Samples != wantRStats.Samples || stats.Events != wantRStats.Events {
					t.Fatalf("%s: %s: stats %+v != oracle %+v", tag, label, stats, wantRStats)
				}
			}
		}
	}
	if totalEvents == 0 {
		t.Fatal("random sweep produced no events — the equivalence checks compared nothing")
	}
	if smallBlocks == 0 {
		t.Fatal("no case had a sweep below its normalisation window — the small-gulp stream leg never ran")
	}
}

// TestKernelRemainderPaths drives the four-stream passes through every
// remainder they can leave: 1–9 channels (and two wider bands) under the
// brute plan, and subband counts that do not divide by four — including
// plans whose last subband is narrower than the rest — under the subband
// plan, each against the reference search, batch and stream. Every leg
// runs with ZeroDM, so the fused staging is compared with ZeroDMFilter
// bit-for-bit, and a batch-only leg takes global moments (NormWindow 0),
// the all-clamped case of the normaliser.
func TestKernelRemainderPaths(t *testing.T) {
	ctx := context.Background()
	narrowLast, events := 0, 0
	for _, nchans := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33} {
		fb, err := Generate(SynthConfig{
			NChans: nchans, NSamples: tileSamples + 517, TsampSec: 256e-6,
			Fch1MHz: 1500, FoffMHz: -270 / float64(nchans),
			Seed: int64(100 + nchans),
			Pulses: []InjectedPulse{
				{TimeSec: 0.3, DM: 20, WidthMs: 1.5, SNR: 16},
				{TimeSec: 0.8, DM: 70, WidthMs: 3, SNR: 20},
			},
			RFI: []RFIBurst{{TimeSec: 0.55, WidthMs: 2, Amp: 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		dms, err := LinearDMs(0, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		plans := []DedispersePlan{{Kind: PlanBrute}}
		for _, nsub := range []int{1, 2, 3, 5, 7} {
			if nsub <= nchans {
				plans = append(plans, DedispersePlan{Kind: PlanSubband, NSub: nsub})
			}
		}
		for _, plan := range plans {
			tag := fmt.Sprintf("nchans %d plan %q nsub %d", nchans, plan.Kind, plan.NSub)
			sub, _, err := resolveDedisperse(fb.Header, dms, plan)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if sub != nil && sub.NSub*sub.chansPer != nchans {
				narrowLast++
			}
			sweep, _ := requiredSweep(fb.Header, dms, sub)
			for _, window := range []int{0, 512} {
				base := Config{DMs: dms, Widths: []int{1, 3, 5, 7, 13, 64}, Threshold: 5, NormWindow: window, ZeroDM: true, Plan: plan}
				want, _, err := refSearch(fb, base)
				if err != nil {
					t.Fatalf("%s: oracle: %v", tag, err)
				}
				events += len(want)
				legs := map[string]Config{"batch": withWorkers(base, 1)}
				if window > 0 {
					legs["batch"] = withWorkers(base, 3)
					// The stream cannot take global moments.
					stream := withWorkers(base, 2)
					stream.BlockSamples = sweep + 700
					legs["stream"] = stream
				}
				for label, cfg := range legs {
					got, _, err := Search(ctx, fb, cfg)
					if err != nil {
						t.Fatalf("%s window %d: %s: %v", tag, window, label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s window %d: %s: events diverge from the reference search (%d vs %d)",
							tag, window, label, len(got), len(want))
					}
				}
			}
		}
	}
	if narrowLast == 0 {
		t.Fatal("no subband plan had a narrower last subband — the subRange clamp never ran")
	}
	if events == 0 {
		t.Fatal("no case produced events — the equivalence checks compared nothing")
	}
}

// refWindowSum is the slow recursive reference for the BoxDIT recurrence:
// the same decomposition tree the ladder materialises, evaluated
// independently per (width, offset). Because it performs the identical
// additions in the identical order, the ladder must match it bit-for-bit.
func refWindowSum(z []float64, w, t int) float64 {
	if w == 1 {
		return z[t]
	}
	a, b := splitWidth(w)
	return refWindowSum(z, a, t) + refWindowSum(z, b, t+a)
}

// TestBoxLadderMatchesReference pins the ladder's partial-sum reuse to the
// recursive reference (bit-exact) and to the naive direct window sum
// (within float64 reassociation tolerance).
func TestBoxLadderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	widths := []int{1, 2, 3, 5, 7, 8, 13, 16, 21, 64}
	const n = 300
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	lad := newBoxLadder(widths)
	lad.compute(z)
	for _, w := range widths {
		sums := lad.sums[lad.idx[w]]
		if len(sums) != n-w+1 {
			t.Fatalf("width %d: %d sums, want %d", w, len(sums), n-w+1)
		}
		for ti, got := range sums {
			if want := refWindowSum(z, w, ti); got != want {
				t.Fatalf("width %d offset %d: ladder %v != recursive reference %v", w, ti, got, want)
			}
			var direct float64
			for k := 0; k < w; k++ {
				direct += z[ti+k]
			}
			if math.Abs(got-direct) > 1e-9*math.Max(1, math.Abs(direct)) {
				t.Fatalf("width %d offset %d: ladder %v vs direct sum %v", w, ti, got, direct)
			}
		}
	}
}

// TestSearchConcurrentShared hammers the package-level scratch pools and
// the stateful stream kernels: several goroutines repeatedly run batch and
// streaming searches (both plans) over shared inputs, and
// every run must reproduce its serial reference. Run under -race this is
// the data-race gate for the pooled trial buffers, the staged channel-major
// copy, and the per-trial stream state.
func TestSearchConcurrentShared(t *testing.T) {
	fb := streamFixture(t)
	dms, err := LinearDMs(0, 180, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{DMs: dms, Threshold: 6, NormWindow: 512, ZeroDM: true,
			Plan: DedispersePlan{Kind: PlanBrute},
			Exec: rdd.ExecConfig{Workers: 2}},
		{DMs: dms, Threshold: 6, NormWindow: 512, ZeroDM: true,
			Plan:         DedispersePlan{Kind: PlanSubband},
			BlockSamples: 2048, Exec: rdd.ExecConfig{Workers: 2}},
		{DMs: dms, Threshold: 6, NormWindow: 512,
			Plan:         DedispersePlan{Kind: PlanBrute},
			BlockSamples: 1024, Exec: rdd.ExecConfig{Workers: 3}},
	}
	refs := make([][]spe.SPE, len(cfgs))
	for i, cfg := range cfgs {
		if refs[i], _, err = Search(context.Background(), fb, cfg); err != nil {
			t.Fatal(err)
		}
	}
	loops := 2
	if testing.Short() {
		loops = 1
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2*len(cfgs)*loops)
	for g := 0; g < 2*len(cfgs); g++ {
		i := g % len(cfgs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < loops; l++ {
				got, _, err := Search(context.Background(), fb, cfgs[i])
				if err != nil {
					errc <- fmt.Errorf("cfg %d: %w", i, err)
					return
				}
				if !reflect.DeepEqual(got, refs[i]) {
					errc <- fmt.Errorf("cfg %d: concurrent run diverged from serial reference (%d vs %d events)",
						i, len(got), len(refs[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
