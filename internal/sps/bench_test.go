package sps

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"drapid/internal/benchjson"
	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// Benchmarks of the frontend hot path. Results are also written as
// machine-readable JSON (BENCH_sps.json, or $BENCH_JSON) through
// internal/benchjson so future PRs can track the trajectory:
//
//	go test -bench 'Dedisperse|Boxcar' -run xxx ./internal/sps
//
// BenchmarkDedisperse sweeps the worker count over the DM-trial fan-out —
// the axis the acceptance criterion expects to scale near-linearly — and
// reports the brute-force read volume as MB/s; its plan=brute /
// plan=subband pair compares the two dedispersion strategies of
// DESIGN.md §6 on the engine's default detect grid.

var benchOut = benchjson.NewCollector("")

func TestMain(m *testing.M) {
	code := m.Run()
	if err := benchOut.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// benchFilterbank builds the measurement fixture once. -short shrinks it
// so the CI smoke step stays fast.
func benchFilterbank(b *testing.B) (*Filterbank, []float64) {
	b.Helper()
	cfg := SynthConfig{NChans: 256, NSamples: 1 << 15, TsampSec: 128e-6, FoffMHz: -1, Seed: 21}
	nTrials := 128
	if testing.Short() {
		cfg.NChans, cfg.NSamples, nTrials = 64, 1<<13, 32
	}
	cfg.Pulses = RandomPulses(cfg, 4, 20, 200, 12, 30, 7)
	fb, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dms, err := LinearDMs(0, float64(2*nTrials-2), 2)
	if err != nil {
		b.Fatal(err)
	}
	return fb, dms
}

// sampleOp times each b.N iteration of op individually and then tops the
// sample up to minSampleN iterations, so a -benchtime 1x smoke run still
// records a variance-bearing measurement (n and rsd_percent in the
// artifact) instead of single-shot noise.
const minSampleN = 3

func sampleOp(b *testing.B, op func()) *benchjson.Sample {
	b.Helper()
	s := &benchjson.Sample{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Time(op)
	}
	b.StopTimer()
	s.EnsureN(minSampleN, op)
	return s
}

// dedisperseAll runs one full DM fan-out over fb on the given pool width,
// with an optional per-trial latency standing in for the filterbank block
// ingest (disk/network reads) that accompanies each trial in a real-time
// search. A non-nil cm selects the production kernel, staging per call as
// the search driver does (the staging cost is part of what the entry
// measures, amortised over the trial grid exactly as in production); nil
// times the per-sample reference, refDedisperse.
func dedisperseAll(b *testing.B, fb *Filterbank, dms []float64, workers int, latency time.Duration, cm *chanMajor) {
	b.Helper()
	exec := rdd.ExecConfig{Workers: workers}
	if cm != nil {
		if err := cm.stage(context.Background(), exec, &Block{Rows: fb.NSamples, Data: fb.Data}, fb.NChans, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := rdd.RunParallel(context.Background(), exec, len(dms), func(t int) {
		if latency > 0 {
			time.Sleep(latency)
		}
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		shifts := ChannelShifts(fb.Header, dms[t], nil)
		if cm != nil {
			bufs.series = dedisperse(cm, shifts, 0, cm.nchan, 0, fb.NSamples-MaxShift(fb.Header, dms[t]), bufs.series)
			return
		}
		series, err := refDedisperse(fb, shifts, bufs.series)
		if err != nil {
			panic(err)
		}
		bufs.series = series
	}); err != nil {
		b.Fatal(err)
	}
}

// subbandDedisperseAll runs one full fine-grid fan-out through the
// two-stage plan — the dedispersion work of the subband search without the
// filtering stages: per nominal, stage 1 once and then stage 2 for every
// constrainable fine trial (shift tables and staging included), mirroring
// what dedisperseAll measures for brute force.
func subbandDedisperseAll(b *testing.B, fb *Filterbank, plan *SubbandPlan, workers int, cm *chanMajor) {
	b.Helper()
	exec := rdd.ExecConfig{Workers: workers}
	if err := cm.stage(context.Background(), exec, &Block{Rows: fb.NSamples, Data: fb.Data}, fb.NChans, false, nil); err != nil {
		b.Fatal(err)
	}
	tabs := buildShiftTables(fb.Header, plan.dms, plan)
	groups := plan.nominalGroups(0, len(plan.dms))
	if err := rdd.RunParallel(context.Background(), exec, len(groups), func(k int) {
		if len(groups[k]) == 0 {
			return
		}
		bufs := subbandPool.Get().(*subbandBuffers)
		defer subbandPool.Put(bufs)
		bufs.sub = plan.stage1(cm, tabs.nomCh[k], tabs.nomIntra[k], bufs.sub)
		for _, i := range groups[k] {
			if n := cm.rows - tabs.sweeps[i]; n >= 1 {
				bufs.combined = combine(bufs.sub, tabs.trialSub[i], 0, 0, n, bufs.combined)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDedisperse(b *testing.B) {
	fb, dms := benchFilterbank(b)
	// Brute-force dedispersion reads every sample of every channel once
	// per trial: the per-op volume is trials × the 4-byte data block.
	bytesPerOp := int64(len(dms)) * int64(len(fb.Data)) * 4

	// The kernel axis: the same single-worker trial fan-out through the
	// sample-major reference walk (refDedisperse) and the production kernel
	// (staging included), so the artifact carries the locality speedup
	// independent of core count.
	var scalarNs float64
	for _, kern := range []string{"scalar", "blocked"} {
		b.Run(fmt.Sprintf("kernel=%s", kern), func(b *testing.B) {
			var cm *chanMajor
			if kern == "blocked" {
				cm = &chanMajor{}
			}
			b.SetBytes(bytesPerOp)
			s := sampleOp(b, func() { dedisperseAll(b, fb, dms, 1, 0, cm) })
			if kern == "scalar" {
				scalarNs = s.NsPerOp()
			} else if scalarNs > 0 && s.NsPerOp() > 0 {
				b.ReportMetric(scalarNs/s.NsPerOp(), "speedup")
			}
			benchOut.Record(s.Entry(fmt.Sprintf("BenchmarkDedisperse/kernel=%s", kern), bytesPerOp, 1))
		})
	}

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cm := &chanMajor{}
			b.SetBytes(bytesPerOp)
			s := sampleOp(b, func() { dedisperseAll(b, fb, dms, workers, 0, cm) })
			benchOut.Record(s.Entry("BenchmarkDedisperse/workers="+fmt.Sprint(workers), bytesPerOp, workers))
		})
	}

	// The ingest series isolates the DM-trial fan-out's scheduling from
	// the host's core count (CI containers may expose a single core,
	// where pure compute cannot speed up): each trial dedisperses a small
	// block and pays a fixed simulated ingest latency, the disk/network
	// wait that dominates real-time search pipelines. Near-linear scaling
	// with workers here demonstrates the fan-out overlaps those waits.
	small, err := Generate(SynthConfig{NChans: 32, NSamples: 4096, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	smallDMs, err := LinearDMs(0, 62, 2)
	if err != nil {
		b.Fatal(err)
	}
	const latency = 5 * time.Millisecond
	var serialNs float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ingest/workers=%d", workers), func(b *testing.B) {
			s := sampleOp(b, func() { dedisperseAll(b, small, smallDMs, workers, latency, nil) })
			ns := s.NsPerOp()
			if workers == 1 {
				serialNs = ns
			} else if serialNs > 0 {
				b.ReportMetric(serialNs/ns, "speedup")
			}
			benchOut.Record(s.Entry("BenchmarkDedisperse/ingest/workers="+fmt.Sprint(workers), 0, workers))
		})
	}

	// The plan series is the PR 4 headline comparison: the same fine DM
	// grid — the engine's default detect grid, 0–300 step 1 — dedispersed
	// brute force and through the two-stage subband plan, both at full
	// pool width. Per-op bytes are the brute-equivalent read volume for
	// both entries, so the JSON artifact's MB/s compare like for like
	// (the subband plan does strictly less reading for the same searched
	// grid; its higher "effective" rate IS the speedup).
	planCfg := SynthConfig{NChans: 256, NSamples: 1 << 14, TsampSec: 128e-6, FoffMHz: -1, Seed: 27}
	if testing.Short() {
		planCfg.NChans, planCfg.NSamples = 64, 1<<13
	}
	planFB, err := Generate(planCfg)
	if err != nil {
		b.Fatal(err)
	}
	detectDMs, err := LinearDMs(0, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanSubbands(planFB.Header, detectDMs, 0)
	if err != nil {
		b.Fatal(err)
	}
	planBytes := int64(len(detectDMs)) * int64(len(planFB.Data)) * 4
	workers := rdd.ExecConfig{}.NumWorkers()
	var bruteNs float64
	b.Run("plan=brute", func(b *testing.B) {
		cm := &chanMajor{}
		b.SetBytes(planBytes)
		s := sampleOp(b, func() { dedisperseAll(b, planFB, detectDMs, workers, 0, cm) })
		bruteNs = s.NsPerOp()
		benchOut.Record(s.Entry("BenchmarkDedisperse/plan=brute", planBytes, workers))
	})
	b.Run("plan=subband", func(b *testing.B) {
		cm := &chanMajor{}
		b.SetBytes(planBytes)
		s := sampleOp(b, func() { subbandDedisperseAll(b, planFB, plan, workers, cm) })
		if ns := s.NsPerOp(); bruteNs > 0 && ns > 0 {
			b.ReportMetric(bruteNs/ns, "speedup")
		}
		benchOut.Record(s.Entry("BenchmarkDedisperse/plan=subband", planBytes, workers))
	})
}

// BenchmarkSearch measures the full frontend end to end at full pool
// width, ingest included, as a mode=batch / mode=stream matrix over an
// nsamples axis that grows 4×. Both modes start from the same serialised
// SIGPROC bytes and run the same trial grid with the same explicit
// normalisation window (so the searched events are identical) through the
// one search driver: batch stages the whole observation and searches it
// as one gulp (sps.Read + Search), stream consumes it in fixed gulps
// (SearchStream). The per-entry peak-alloc-B metric — the
// heap-allocation high-water of one operation, recorded in BENCH_sps.json
// as peak_alloc_bytes — is the bounded-memory evidence of DESIGN.md §7:
// roughly flat across the nsamples axis for stream, linear for batch.
func BenchmarkSearch(b *testing.B) {
	baseNS := 1 << 15
	if testing.Short() {
		baseNS = 1 << 13
	}
	workers := rdd.ExecConfig{}.NumWorkers()
	for _, scale := range []int{1, 4} {
		cfg := SynthConfig{NChans: 128, NSamples: baseNS * scale, TsampSec: 128e-6, FoffMHz: -1, Seed: 21}
		cfg.Pulses = RandomPulses(cfg, 4, 20, 200, 12, 30, 7)
		fb, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, fb); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		dms, err := LinearDMs(0, 254, 2)
		if err != nil {
			b.Fatal(err)
		}
		sub, _, err := resolveDedisperse(fb.Header, dms, DedispersePlan{})
		if err != nil {
			b.Fatal(err)
		}
		sweep, _ := requiredSweep(fb.Header, dms, sub)
		block := 8192
		if block < sweep {
			block = sweep
		}
		scfg := Config{DMs: dms, NormWindow: 1024}
		bytesPerOp := int64(len(dms)) * int64(len(fb.Data)) * 4
		discard := func([]spe.SPE) error { return nil }
		// lastStats keeps the final iteration's search stats so the JSON
		// entry can carry a representative per-stage time breakdown.
		var lastStats Stats
		ops := map[string]func(){
			"batch": func() {
				got, err := Read(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := Search(context.Background(), got, scfg)
				if err != nil {
					b.Fatal(err)
				}
				lastStats = stats
			},
			"stream": func() {
				streamCfg := scfg
				streamCfg.BlockSamples = block
				_, stats, err := SearchStream(context.Background(), bytes.NewReader(raw), streamCfg, discard)
				if err != nil {
					b.Fatal(err)
				}
				lastStats = stats
			},
		}
		for _, mode := range []string{"batch", "stream"} {
			op := ops[mode]
			name := fmt.Sprintf("mode=%s/nsamples=%d", mode, cfg.NSamples)
			b.Run(name, func(b *testing.B) {
				b.SetBytes(bytesPerOp)
				s := sampleOp(b, op)
				peak := peakAllocBytes(op)
				b.ReportMetric(float64(peak), "peak-alloc-B")
				e := s.Entry("BenchmarkSearch/"+name, bytesPerOp, workers)
				e.PeakAllocBytes = peak
				e.StageMs = stageMs(lastStats.StageSeconds)
				benchOut.Record(e)
			})
		}
	}
}

// stageMs scales a Stats.StageSeconds breakdown to milliseconds under
// the artifact's key convention ("stage_dedisperse_ms"), so BENCH_sps.json
// shows where each search op's time went.
func stageMs(stageSeconds map[string]float64) map[string]float64 {
	if len(stageSeconds) == 0 {
		return nil
	}
	out := make(map[string]float64, len(stageSeconds))
	for name, secs := range stageSeconds {
		out["stage_"+name+"_ms"] = secs * 1e3
	}
	return out
}

// peakAllocBytes runs op once with the collector paused and returns the
// heap-allocation high-water it adds — with GC off, HeapAlloc grows
// monotonically, so the delta bounds the operation's peak footprint.
func peakAllocBytes(op func()) int64 {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	op()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc - m0.HeapAlloc)
}

func BenchmarkBoxcar(b *testing.B) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(9))
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	for i := 0; i < 40; i++ {
		base[rng.Intn(n)] += 8
	}
	series := make([]float64, n)
	bytesPerOp := int64(n) * 8
	ops := map[string]func(){
		"normalize": func() {
			copy(series, base)
			Normalize(series, 4096)
		},
		"detect": func() {
			BoxcarDetect(base, DefaultWidths(), 6)
		},
	}
	for _, name := range []string{"normalize", "detect"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(bytesPerOp)
			s := sampleOp(b, ops[name])
			benchOut.Record(s.Entry("BenchmarkBoxcar/"+name, bytesPerOp, 1))
		})
	}
}
