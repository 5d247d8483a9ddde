package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"drapid/internal/benchjson"
	"drapid/internal/obs"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// BenchmarkFleet measures the coordinator end to end — shard planning,
// dispatch over in-process workers, search, and the ordered merge — over
// a shards × workers grid, reporting the brute-force read volume as MB/s
// and the merged event rate. Results land in BENCH_sps.json (or
// $BENCH_JSON) through internal/benchjson:
//
//	go test -bench Fleet -run xxx ./internal/fleet

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

// benchFixture builds the measurement observation once: raw SIGPROC
// bytes plus the trial grid every shard carries. -short shrinks it so a
// CI smoke step stays fast.
func benchFixture(b *testing.B) ([]byte, []float64, int64) {
	b.Helper()
	cfg := sps.SynthConfig{
		NChans: 96, NSamples: 1 << 14, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2, Seed: 17,
	}
	nTrials := 96
	if testing.Short() {
		cfg.NChans, cfg.NSamples, nTrials = 48, 1<<12, 32
	}
	cfg.Pulses = sps.RandomPulses(cfg, 6, 15, float64(2*nTrials-10), 10, 25, 5)
	fb, err := sps.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sps.Write(&buf, fb); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	dms, err := sps.LinearDMs(0, float64(2*nTrials-2), 2)
	if err != nil {
		b.Fatal(err)
	}
	// Brute-force dedispersion reads the whole block once per trial.
	bytesPerOp := int64(len(dms)) * int64(cfg.NChans) * int64(cfg.NSamples) * 4
	return raw, dms, bytesPerOp
}

func benchWorkers(n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		exec := rdd.ExecConfig{Workers: 2}
		exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
		ws[i] = NewLocal(fmt.Sprintf("w%d", i), exec)
	}
	return ws
}

func BenchmarkFleet(b *testing.B) {
	raw, dms, bytesPerOp := benchFixture(b)
	search := SearchSpec{Threshold: 6, NormWindow: 1024, ZeroDM: true, Plan: "brute"}
	for _, grid := range []struct{ shards, workers int }{
		{1, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4},
	} {
		name := fmt.Sprintf("shards=%d/workers=%d", grid.shards, grid.workers)
		b.Run(name, func(b *testing.B) {
			reg := obs.NewRegistry()
			coord := NewCoordinator(Config{Metrics: reg}, benchWorkers(grid.workers)...)
			defer coord.Close()
			shards := PlanDM("bench", raw, dms, search, grid.shards)
			b.SetBytes(bytesPerOp)
			var events int
			op := func() {
				events = 0
				_, _, err := coord.Run(context.Background(), shards,
					func(batch []spe.SPE) error { events += len(batch); return nil },
					RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			// Each iteration is timed individually and the sample is topped
			// up to a minimum count, so a -benchtime 1x smoke run still
			// records a variance-bearing measurement (the earlier n:1
			// entries made single-shot scheduling noise look like real
			// shards×workers structure).
			s := &benchjson.Sample{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Time(op)
			}
			b.StopTimer()
			s.EnsureN(3, op)
			if events == 0 {
				b.Fatal("benchmark run merged no events")
			}
			e := s.Entry("BenchmarkFleet/"+name, bytesPerOp, grid.workers)
			if ns := s.NsPerOp(); ns > 0 {
				e.EventsPerS = float64(events) / ns * 1e9
			}
			// Mean queue-to-dispatch latency over every shard attempt of the
			// run, from the coordinator's per-worker histograms.
			if mean := dispatchMeanSeconds(reg, grid.workers); mean > 0 {
				e.StageMs = map[string]float64{"dispatch": mean * 1e3}
			}
			benchOut.Record(e)
		})
	}
}

// dispatchMeanSeconds folds the per-worker dispatch-latency histograms
// (drapid_fleet_dispatch_seconds) into one mean.
func dispatchMeanSeconds(reg *obs.Registry, workers int) float64 {
	var count uint64
	var sum float64
	for i := 0; i < workers; i++ {
		h := reg.Histogram("drapid_fleet_dispatch_seconds",
			"Queue-to-dispatch latency of shard attempts: time from entering the todo queue to landing on a worker.",
			dispatchBuckets, obs.L("worker", fmt.Sprintf("w%d", i)))
		count += h.Count()
		sum += h.Sum()
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// wireFixtureShards plans the 4-shard DM job every wire measurement
// uses; the satellite acceptance numbers are quoted against this shape.
func wireFixtureShards(b *testing.B, raw []byte, dms []float64) []ShardSpec {
	b.Helper()
	search := SearchSpec{Threshold: 6, NormWindow: 1024, ZeroDM: true, Plan: "brute"}
	shards := PlanDM("bench", raw, dms, search, 4)
	if len(shards) != 4 {
		b.Fatalf("planned %d shards, want 4", len(shards))
	}
	return shards
}

// dispatchAll round-robins the shards over the remotes sequentially, so
// the bytes each worker sees are deterministic (with a coordinator the
// shard→worker assignment races and the cold-path upload count would
// depend on scheduling).
func dispatchAll(tb testing.TB, shards []ShardSpec, remotes []*Remote) {
	tb.Helper()
	for i, s := range shards {
		if _, err := remotes[i%len(remotes)].Run(context.Background(), s,
			func([]spe.SPE) error { return nil }); err != nil {
			tb.Fatal(err)
		}
	}
}

func remoteSent(remotes []*Remote) int64 {
	var total float64
	for _, r := range remotes {
		total += r.sent.Value()
	}
	return int64(total)
}

// BenchmarkFleetWire measures coordinator→worker bytes for the 4-shard
// DM job under the two cache states — cold (blob upload + lean specs)
// and warm (cache hit, lean specs only) — and records each as a
// wire_bytes series benchguard tracks.
func BenchmarkFleetWire(b *testing.B) {
	raw, dms, _ := benchFixture(b)
	shards := wireFixtureShards(b, raw, dms)
	const nWorkers = 2

	// proto=v2: cold caches — each worker receives the blob once, raw,
	// plus four lean specs. Fresh servers and remotes per iteration keep
	// every measurement cold.
	b.Run("proto=v2", func(b *testing.B) {
		s := &benchjson.Sample{}
		var wire int64
		op := func() {
			servers := make([]*httptest.Server, nWorkers)
			remotes := make([]*Remote, nWorkers)
			reg := obs.NewRegistry()
			for i := range servers {
				servers[i] = httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
				remotes[i] = NewRemote(fmt.Sprintf("w%d", i), servers[i].URL, nil, WithWireMetrics(reg))
			}
			dispatchAll(b, shards, remotes)
			wire = remoteSent(remotes)
			for _, ts := range servers {
				ts.Close()
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Time(op)
		}
		b.StopTimer()
		s.EnsureN(3, op)
		e := s.Entry("BenchmarkFleetWire/proto=v2", 0, nWorkers)
		e.WireBytes = wire
		benchOut.Record(e)
	})

	// proto=v2-cached: repeat submission over a warm cache — the second
	// job of the CI smoke, resubmission after worker loss, every job
	// after the first on a long-lived fleet.
	b.Run("proto=v2-cached", func(b *testing.B) {
		reg := obs.NewRegistry()
		servers := make([]*httptest.Server, nWorkers)
		remotes := make([]*Remote, nWorkers)
		for i := range servers {
			servers[i] = httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
			defer servers[i].Close()
			remotes[i] = NewRemote(fmt.Sprintf("w%d", i), servers[i].URL, nil, WithWireMetrics(reg))
		}
		dispatchAll(b, shards, remotes) // warm the caches, untimed
		s := &benchjson.Sample{}
		var wire int64
		op := func() {
			before := remoteSent(remotes)
			dispatchAll(b, shards, remotes)
			wire = remoteSent(remotes) - before
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Time(op)
		}
		b.StopTimer()
		s.EnsureN(3, op)
		e := s.Entry("BenchmarkFleetWire/proto=v2-cached", 0, nWorkers)
		e.WireBytes = wire
		benchOut.Record(e)
	})
}

// codecFixture builds a deterministic event batch whose natural wire
// volume is n × 36 record-bytes. Both codec benchmarks report MB/s over
// that same volume, so their ratio is a pure encode+decode time ratio.
func codecFixture(n int) []spe.SPE {
	events := make([]spe.SPE, n)
	for i := range events {
		events[i] = spe.SPE{
			DM:       float64(i%300) * 0.5,
			SNR:      6 + float64(i%97)/7.0,
			Time:     float64(i) * 256e-6,
			Sample:   int64(i),
			Downfact: 1 + i%150,
		}
	}
	return events
}

// BenchmarkFleetCodec measures the event return path's encode+decode
// rate for the binary frame codec against the NDJSON lines it replaced,
// over identical batches and a common per-op volume (n × 36 bytes).
// The ISSUE 10 acceptance bar is binary ≥ 3× JSON in MB/s.
func BenchmarkFleetCodec(b *testing.B) {
	n := 200_000
	if testing.Short() {
		n = 50_000
	}
	events := codecFixture(n)
	stats := sps.Stats{Trials: 96, Samples: 1 << 14, Events: n, Plan: "brute"}
	vol := int64(n) * eventWireSize

	b.Run("codec=binary", func(b *testing.B) {
		var buf bytes.Buffer
		op := func() {
			buf.Reset()
			fw := &frameWriter{w: &buf}
			if err := fw.writeEvents(events); err != nil {
				b.Fatal(err)
			}
			if err := fw.writeStats(stats); err != nil {
				b.Fatal(err)
			}
			fr := &frameReader{r: bytes.NewReader(buf.Bytes())}
			total := 0
			for {
				typ, payload, err := fr.next()
				if err != nil {
					b.Fatal(err)
				}
				if typ == frameStats {
					break
				}
				total += len(fr.events(payload))
			}
			if total != n {
				b.Fatalf("decoded %d events, want %d", total, n)
			}
		}
		b.SetBytes(vol)
		s := &benchjson.Sample{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Time(op)
		}
		b.StopTimer()
		s.EnsureN(3, op)
		benchOut.Record(s.Entry("BenchmarkFleetCodec/codec=binary", vol, 0))
	})

	b.Run("codec=json", func(b *testing.B) {
		var buf bytes.Buffer
		op := func() {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			if err := enc.Encode(shardLine{Events: toWire(events)}); err != nil {
				b.Fatal(err)
			}
			if err := enc.Encode(shardLine{Done: true, Stats: &wireStats{
				Trials: stats.Trials, Samples: stats.Samples, Events: stats.Events, Plan: stats.Plan,
			}}); err != nil {
				b.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
			total := 0
			for {
				var l shardLine
				if err := dec.Decode(&l); err != nil {
					b.Fatal(err)
				}
				if l.Done {
					break
				}
				total += len(fromWire(l.Events))
			}
			if total != n {
				b.Fatalf("decoded %d events, want %d", total, n)
			}
		}
		b.SetBytes(vol)
		s := &benchjson.Sample{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Time(op)
		}
		b.StopTimer()
		s.EnsureN(3, op)
		benchOut.Record(s.Entry("BenchmarkFleetCodec/codec=json", vol, 0))
	})
}

// TestWireBytesReduction asserts the data plane's wire economics
// directly, independent of the benchmark artifact: for the 4-shard DM
// job, cold caches cut coordinator→worker bytes ≥60% against the
// shards × observation bytes any protocol shipping the observation inline
// must send, and a warm repeat submission cuts ≥95%.
func TestWireBytesReduction(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}
	shards := PlanDM("bench", raw, dms, search, 4)
	if len(shards) != 4 {
		t.Fatalf("planned %d shards, want 4", len(shards))
	}
	inline := int64(len(shards)) * int64(len(raw))

	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil, WithWireMetrics(obs.NewRegistry()))
	dispatchAll(t, shards, []*Remote{remote})
	sentCold := remoteSent([]*Remote{remote})
	dispatchAll(t, shards, []*Remote{remote})
	sentCached := remoteSent([]*Remote{remote}) - sentCold

	t.Logf("wire bytes, 4-shard DM job over %d-byte observation: inline=%d cold=%d cached=%d",
		len(raw), inline, sentCold, sentCached)
	if sentCold > inline*2/5 {
		t.Errorf("cold = %d bytes, want >= 60%% below inline's %d", sentCold, inline)
	}
	if sentCached > inline/20 {
		t.Errorf("cached = %d bytes, want >= 95%% below inline's %d", sentCached, inline)
	}
}

// TestCodecSpeedup asserts the binary codec's acceptance bar without
// waiting for a bench run: encode+decode of the same batch must beat
// JSON by ≥3× (in practice it is an order of magnitude).
func TestCodecSpeedup(t *testing.T) {
	n := 150_000
	if testing.Short() {
		n = 30_000
	}
	events := codecFixture(n)
	stats := sps.Stats{Trials: 96, Samples: 1 << 14, Events: n, Plan: "brute"}

	timeOp := func(op func()) time.Duration {
		op() // warm caches and grow buffers untimed
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			op()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}

	var bbuf bytes.Buffer
	binary := timeOp(func() {
		bbuf.Reset()
		fw := &frameWriter{w: &bbuf}
		fw.writeEvents(events)
		fw.writeStats(stats)
		fr := &frameReader{r: bytes.NewReader(bbuf.Bytes())}
		for {
			typ, payload, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if typ == frameStats {
				break
			}
			fr.events(payload)
		}
	})

	var jbuf bytes.Buffer
	jsonDur := timeOp(func() {
		jbuf.Reset()
		enc := json.NewEncoder(&jbuf)
		enc.Encode(shardLine{Events: toWire(events)})
		enc.Encode(shardLine{Done: true})
		dec := json.NewDecoder(bytes.NewReader(jbuf.Bytes()))
		for {
			var l shardLine
			if err := dec.Decode(&l); err != nil {
				t.Fatal(err)
			}
			if l.Done {
				break
			}
			fromWire(l.Events)
		}
	})

	ratio := float64(jsonDur) / float64(binary)
	t.Logf("codec round-trip over %d events: binary %v, json %v (%.1fx)", n, binary, jsonDur, ratio)
	if ratio < 3 {
		t.Errorf("binary codec only %.1fx JSON, acceptance bar is 3x", ratio)
	}
}
