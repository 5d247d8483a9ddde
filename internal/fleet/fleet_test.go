package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"drapid/internal/hdfs"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// testExec is a small shared executor for shard runs.
func testExec() rdd.ExecConfig {
	exec := rdd.ExecConfig{Workers: 4}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	return exec
}

// testObservation renders a small synthetic observation with a few
// dispersed pulses, returning both the parsed filterbank and its raw
// SIGPROC bytes.
func testObservation(t *testing.T) (*sps.Filterbank, []byte) {
	t.Helper()
	fb, err := sps.Generate(sps.SynthConfig{
		NChans: 96, NSamples: 8192, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		Seed: 11,
		Pulses: []sps.InjectedPulse{
			{TimeSec: 0.25, DM: 20, WidthMs: 2, SNR: 15},
			{TimeSec: 0.80, DM: 55, WidthMs: 3, SNR: 18},
			{TimeSec: 1.40, DM: 90, WidthMs: 4, SNR: 13},
			{TimeSec: 1.90, DM: 30, WidthMs: 2.5, SNR: 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sps.Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	return fb, buf.Bytes()
}

// testGrid is the trial grid shared by the sharding tests.
func testGrid() []float64 {
	dms := make([]float64, 0, 51)
	for dm := 0.0; dm <= 100; dm += 2 {
		dms = append(dms, dm)
	}
	return dms
}

// unshardedEvents runs the reference single-engine search.
func unshardedEvents(t *testing.T, fb *sps.Filterbank, search SearchSpec, dms []float64) []spe.SPE {
	t.Helper()
	kind, err := sps.ParsePlanKind(search.Plan)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := sps.Search(context.Background(), fb, sps.Config{
		DMs: dms, Widths: search.Widths, Threshold: search.Threshold,
		NormWindow: search.NormWindow, ZeroDM: search.ZeroDM,
		Plan: sps.DedispersePlan{Kind: kind}, Exec: testExec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func eventsEqual(a, b []spe.SPE) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDMShardingBitExact is the core merge-exactness contract: for every
// shard count and both plan kinds, the canonical merge of the DM shards'
// events must be identical — every field of every record — to the
// unsharded search.
func TestDMShardingBitExact(t *testing.T) {
	fb, raw := testObservation(t)
	dms := testGrid()
	for _, plan := range []string{"brute", "subband"} {
		search := SearchSpec{Threshold: 6, Plan: plan, NormWindow: 1024}
		want := unshardedEvents(t, fb, search, dms)
		if len(want) == 0 {
			t.Fatalf("plan %s: reference search found no events", plan)
		}
		for _, n := range []int{2, 3, 7} {
			shards := PlanDM("job", raw, dms, search, n)
			if len(shards) != n {
				t.Fatalf("PlanDM(%d) produced %d shards", n, len(shards))
			}
			var got []spe.SPE
			for _, s := range shards {
				evs, _, err := collectShard(s)
				if err != nil {
					t.Fatalf("plan %s shards %d: %v", plan, n, err)
				}
				got = append(got, evs...)
			}
			spe.SortByTime(got)
			if !eventsEqual(want, got) {
				t.Fatalf("plan %s shards %d: merged events differ from unsharded (%d vs %d)",
					plan, n, len(got), len(want))
			}
		}
	}

	// The slot leg: one Local runs every shard of every split through its
	// staging slot, so only the first shard of each observation and
	// zero-DM setting stages and every later one reuses that staging.
	for _, nbits := range []int{32, 8} {
		fb, raw := testObservationBits(t, nbits)
		w := NewLocal("slot", testExec())
		w.slot.drop(Digest(raw)) // whatever an earlier test left in the shared slot
		for _, zeroDM := range []bool{false, true} {
			for _, plan := range []string{"brute", "subband"} {
				search := SearchSpec{Threshold: 6, Plan: plan, NormWindow: 1024, ZeroDM: zeroDM}
				want := unshardedEvents(t, fb, search, dms)
				if len(want) == 0 {
					t.Fatalf("%d-bit plan %s zero-DM %v: reference search found no events", nbits, plan, zeroDM)
				}
				staged, reused := w.slot.staged.Value(), w.slot.reused.Value()
				runs := 0
				for _, n := range []int{2, 3, 7} {
					var got []spe.SPE
					for _, s := range PlanDM("job", raw, dms, search, n) {
						if _, err := w.Run(context.Background(), s, func(batch []spe.SPE) error {
							got = append(got, batch...)
							return nil
						}); err != nil {
							t.Fatalf("%d-bit plan %s zero-DM %v shards %d: %v", nbits, plan, zeroDM, n, err)
						}
						runs++
					}
					spe.SortByTime(got)
					if !eventsEqual(want, got) {
						t.Fatalf("%d-bit plan %s zero-DM %v shards %d through the slot: merged events differ from unsharded (%d vs %d)",
							nbits, plan, zeroDM, n, len(got), len(want))
					}
				}
				// Plans share a staging: only a zero-DM change restages.
				wantStaged := 0.0
				if plan == "brute" {
					wantStaged = 1
				}
				if s, r := w.slot.staged.Value()-staged, w.slot.reused.Value()-reused; s != wantStaged || s+r != float64(runs) {
					t.Fatalf("%d-bit plan %s zero-DM %v: %v staged and %v reused over %d shards, want %v staged",
						nbits, plan, zeroDM, s, r, runs, wantStaged)
				}
			}
		}
	}
}

// testObservationBits is testObservation stored with nbits-wide samples,
// returning the filterbank as read back from its raw bytes.
func testObservationBits(t *testing.T, nbits int) (*sps.Filterbank, []byte) {
	t.Helper()
	fb, raw := testObservation(t)
	if nbits == fb.NBits {
		return fb, raw
	}
	fb.NBits = nbits
	var buf bytes.Buffer
	if err := sps.Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	back, err := sps.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return back, buf.Bytes()
}

// TestSlotRestagesOnZeroDMFlip: a shard of the digest the slot holds but
// under the other zero-DM setting restages, and so does the flip back;
// each shard's events equal a stateless run of it.
func TestSlotRestagesOnZeroDMFlip(t *testing.T) {
	_, raw := testObservation(t)
	w := NewLocal("flip", testExec())
	w.slot.drop(Digest(raw))
	staged, reused := w.slot.staged.Value(), w.slot.reused.Value()
	for i, zeroDM := range []bool{false, true, true, false} {
		shard := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024, ZeroDM: zeroDM}, 4)[i]
		want, _, err := collectShard(shard)
		if err != nil {
			t.Fatal(err)
		}
		var got []spe.SPE
		if _, err := w.Run(context.Background(), shard, func(batch []spe.SPE) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(want, got) {
			t.Fatalf("shard %d zero-DM %v through the slot: events differ from a stateless run (%d vs %d)", i, zeroDM, len(got), len(want))
		}
	}
	if s, r := w.slot.staged.Value()-staged, w.slot.reused.Value()-reused; s != 3 || r != 1 {
		t.Fatalf("%v staged, %v reused; want 3 and 1 (every zero-DM flip restages)", s, r)
	}
}

// staticObservation is memory outside the Go heap, as a caller's mapped
// or embedded filterbank can be: a package-level array.
var staticObservation [4 << 20]byte

// TestLocalSearchesNonHeapBuffer: Locals stage, and then reuse the
// staging of, an observation whose bytes live outside the Go heap, and
// every shard returns the events of a stateless run.
func TestLocalSearchesNonHeapBuffer(t *testing.T) {
	_, raw := testObservation(t)
	if len(raw) > len(staticObservation) {
		t.Fatalf("the %d-byte observation does not fit the %d-byte array", len(raw), len(staticObservation))
	}
	data := staticObservation[:copy(staticObservation[:], raw)]
	a, b := NewLocal("a", testExec()), NewLocal("b", testExec())
	a.slot.drop(Digest(data))
	staged, reused := a.slot.staged.Value(), a.slot.reused.Value()
	for i, shard := range PlanDM("job", data, testGrid(), SearchSpec{Threshold: 6, Plan: "subband", NormWindow: 1024, ZeroDM: true}, 3) {
		want, _, err := collectShard(shard)
		if err != nil {
			t.Fatal(err)
		}
		var got []spe.SPE
		if _, err := []*Local{a, b}[i%2].Run(context.Background(), shard, func(batch []spe.SPE) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(want, got) {
			t.Fatalf("shard %d: events differ from a stateless run (%d vs %d)", i, len(got), len(want))
		}
	}
	// Both Locals share the process's one slot.
	if s, r := a.slot.staged.Value()-staged, a.slot.reused.Value()-reused; s != 1 || r != 2 {
		t.Fatalf("%v staged, %v reused over 3 shards on two Locals; want 1 and 2", s, r)
	}
}

// collectShard runs one shard locally and buffers its events.
func collectShard(s ShardSpec) ([]spe.SPE, sps.Stats, error) {
	var evs []spe.SPE
	stats, err := RunShard(context.Background(), s, testExec(), func(batch []spe.SPE) error {
		evs = append(evs, batch...)
		return nil
	})
	return evs, stats, err
}

// fakeWorker scripts Worker behaviour for coordinator tests.
type fakeWorker struct {
	name string
	mu   sync.Mutex
	ping func() error
	run  func(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error)
	runs int
}

func (f *fakeWorker) Name() string { return f.name }

func (f *fakeWorker) Ping(ctx context.Context) error {
	f.mu.Lock()
	ping := f.ping
	f.mu.Unlock()
	if ping != nil {
		return ping()
	}
	return ctx.Err()
}

func (f *fakeWorker) Run(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	f.mu.Lock()
	f.runs++
	run := f.run
	f.mu.Unlock()
	return run(ctx, spec, emit)
}

// okRun returns a run function that emits one event derived from the
// shard index after an optional delay.
func okRun(delay time.Duration) func(context.Context, ShardSpec, func([]spe.SPE) error) (sps.Stats, error) {
	return func(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return sps.Stats{}, ctx.Err()
			}
		}
		if err := emit([]spe.SPE{{Time: float64(spec.Index), DM: 1, SNR: 9, Sample: int64(spec.Index)}}); err != nil {
			return sps.Stats{}, err
		}
		return sps.Stats{Events: 1, Trials: 1}, nil
	}
}

// fakeShards builds n minimal shards (coordinator tests never execute a
// real search).
func fakeShards(n int) []ShardSpec {
	shards := make([]ShardSpec, n)
	for i := range shards {
		shards[i] = ShardSpec{Job: "job", Index: i, Shards: n}
	}
	return shards
}

// TestCoordinatorResubmission kills a worker's first attempt after a
// partial emit and checks the shard is recomputed elsewhere with no
// duplicate or lost events.
func TestCoordinatorResubmission(t *testing.T) {
	var failedOnce sync.Once
	flaky := &fakeWorker{name: "flaky"}
	flaky.run = func(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
		var failed bool
		failedOnce.Do(func() { failed = true })
		if failed {
			// Emit a partial batch, then die: the coordinator must discard it.
			emit([]spe.SPE{{Time: 999, DM: 999, SNR: 1}})
			return sps.Stats{}, fmt.Errorf("worker lost")
		}
		return okRun(0)(ctx, spec, emit)
	}
	healthy := &fakeWorker{name: "healthy", run: okRun(0)}
	c := NewCoordinator(Config{Heartbeat: time.Hour}, flaky, healthy)
	defer c.Close()

	var merged []spe.SPE
	_, status, err := c.Run(context.Background(), fakeShards(4), func(evs []spe.SPE) error {
		merged = append(merged, evs...)
		return nil
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if status.Resubmitted != 1 {
		t.Fatalf("Resubmitted = %d, want 1", status.Resubmitted)
	}
	if status.Done != 4 {
		t.Fatalf("Done = %d, want 4", status.Done)
	}
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4 (partial emit must be discarded)", len(merged))
	}
	for i, e := range merged {
		if e.Time != float64(i) {
			t.Fatalf("merged[%d].Time = %g: order or content wrong (partial leak?)", i, e.Time)
		}
	}
	if s := c.Status(); s.ShardsQueued != 0 || s.ShardsRunning != 0 || s.ShardsResubmitted != 1 {
		t.Fatalf("coordinator gauges after run: %+v", s)
	}
}

// TestCoordinatorHeartbeatKillsDeadWorker wedges a worker mid-shard and
// fails its pings: the monitor must cancel the shard, mark the worker
// dead, and the job must still finish on the healthy worker.
func TestCoordinatorHeartbeatKillsDeadWorker(t *testing.T) {
	dead := &fakeWorker{name: "wedged"}
	dead.ping = func() error { return fmt.Errorf("no heartbeat") }
	dead.run = func(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
		<-ctx.Done() // wedge until the monitor cancels us
		return sps.Stats{}, ctx.Err()
	}
	healthy := &fakeWorker{name: "healthy", run: okRun(0)}
	c := NewCoordinator(Config{Heartbeat: 10 * time.Millisecond, FailLimit: 2}, dead, healthy)
	defer c.Close()

	done := make(chan error, 1)
	var mu sync.Mutex
	var merged []spe.SPE
	go func() {
		_, _, err := c.Run(context.Background(), fakeShards(3), func(evs []spe.SPE) error {
			mu.Lock()
			merged = append(merged, evs...)
			mu.Unlock()
			return nil
		}, RunOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not recover from the wedged worker")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	if s := c.Status(); s.WorkersAlive != 1 {
		t.Fatalf("WorkersAlive = %d, want 1 (wedged worker must stay dead)", s.WorkersAlive)
	}
}

// TestCoordinatorMaxAttempts bounds resubmission: a fleet that always
// fails must fail the job, not loop forever.
func TestCoordinatorMaxAttempts(t *testing.T) {
	bad := &fakeWorker{name: "bad"}
	bad.run = func(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
		return sps.Stats{}, fmt.Errorf("always broken")
	}
	c := NewCoordinator(Config{Heartbeat: 5 * time.Millisecond, MaxAttempts: 3}, bad)
	defer c.Close()
	_, status, err := c.Run(context.Background(), fakeShards(1), nil, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want failure after 3 attempts", err)
	}
	if status.Resubmitted == 0 {
		t.Fatalf("Resubmitted = 0, want > 0")
	}
}

// TestHTTPWorkerRoundTrip drives a real shard through the HTTP protocol
// and checks the remote result is identical to running it locally.
func TestHTTPWorkerRoundTrip(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}
	shards := PlanDM("job", raw, dms, search, 2)

	ts := httptest.NewServer(Handler(testExec()))
	defer ts.Close()
	remote := NewRemote("r0", ts.URL, nil)
	if err := remote.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	wantEvents, wantStats, err := collectShard(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	var gotEvents []spe.SPE
	gotStats, err := remote.Run(context.Background(), shards[0], func(evs []spe.SPE) error {
		gotEvents = append(gotEvents, evs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(wantEvents, gotEvents) {
		t.Fatalf("remote events differ from local (%d vs %d)", len(gotEvents), len(wantEvents))
	}
	if gotStats.Trials != wantStats.Trials || gotStats.Samples != wantStats.Samples ||
		gotStats.Events != wantStats.Events || gotStats.Plan != wantStats.Plan {
		t.Fatalf("remote stats %+v, local %+v", gotStats, wantStats)
	}
	// The stage clock rides the wire: the remote's map must come back with
	// the stages the local run timed (values are timings, not comparable).
	for stage := range wantStats.StageSeconds {
		if gotStats.StageSeconds[stage] <= 0 {
			t.Errorf("remote StageSeconds missing stage %q: %+v", stage, gotStats.StageSeconds)
		}
	}
}

// TestRemoteStreamCut pins the completion contract mid-frame: a response
// cut inside a frame, before the terminator, is a failed attempt, not a
// silently short result.
func TestRemoteStreamCut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MediaFrames)
		w.WriteHeader(http.StatusOK)
		frame := appendEvents(nil, []spe.SPE{{DM: 1, SNR: 9, Time: 0.5, Sample: 10, Downfact: 1}})
		w.Write(frame[:len(frame)-eventWireSize/2])
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // cut the connection inside the frame
	}))
	defer ts.Close()
	remote := NewRemote("cut", ts.URL, nil)
	_, err := remote.Run(context.Background(), ShardSpec{Job: "j", Shards: 1}, func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "stream cut") {
		t.Fatalf("stream cut mid-frame: err = %v, want a stream-cut failure", err)
	}
}

// TestStores exercises both journal stores through the shared contract.
func TestStores(t *testing.T) {
	stores := map[string]Store{
		"fs": NewFSStore(hdfs.New(hdfs.Config{BlockSize: 1 << 20, Replication: 1}, 3), "journal/"),
	}
	dir, err := NewDirStore(t.TempDir() + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	stores["dir"] = dir
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("job-1", []byte(`{"a":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("job-2", []byte(`{"b":2}`)); err != nil {
				t.Fatal(err)
			}
			// Overwrite must replace, not error.
			if err := s.Put("job-1", []byte(`{"a":3}`)); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			data, err := s.Get("job-1")
			if err != nil || string(data) != `{"a":3}` {
				t.Fatalf("Get = %q, %v", data, err)
			}
			names, err := s.List()
			if err != nil || len(names) != 2 || names[0] != "job-1" || names[1] != "job-2" {
				t.Fatalf("List = %v, %v", names, err)
			}
			if err := s.Delete("job-2"); err != nil {
				t.Fatal(err)
			}
			if names, _ = s.List(); len(names) != 1 {
				t.Fatalf("List after delete = %v", names)
			}
			if err := s.Delete("job-2"); err == nil {
				t.Fatal("deleting a missing entry did not error")
			}
		})
	}
}

// TestShardSpecValidate covers the spec guard rails.
func TestShardSpecValidate(t *testing.T) {
	_, raw := testObservation(t)
	good := ShardSpec{Job: "j", Filterbank: raw, DMs: []float64{0, 1, 2}, TrialLo: 0, TrialHi: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]ShardSpec{
		"no filterbank": {Job: "j", DMs: []float64{0}},
		"no grid":       {Job: "j", Filterbank: raw},
		"trial range":   {Job: "j", Filterbank: raw, DMs: []float64{0, 1}, TrialLo: 1, TrialHi: 5},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", name, bad)
		}
	}
}

// TestRunShardHoldsObservationOnce is the shard's memory gate: searching
// a 16 MiB 32-bit blob allocates its channel-major staging — one float32
// copy — and no decoded twin of the blob, because the search decodes the
// bytes tile by tile as it stages them. GC is off while measuring, so
// pooled scratch stays pooled after a warm-up run; the best of three runs
// must stay under 1.5 copies.
func TestRunShardHoldsObservationOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	const nchans, nsamples = 128, 32768
	fb, err := sps.Generate(sps.SynthConfig{NChans: nchans, NSamples: nsamples, TsampSec: 256e-6, Fch1MHz: 1500, FoffMHz: -2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sps.Write(&buf, fb); err != nil {
		t.Fatal(err)
	}
	fb = nil
	dms := make([]float64, 21)
	for i := range dms {
		dms[i] = float64(i)
	}
	shard := PlanDM("job", buf.Bytes(), dms, SearchSpec{Threshold: 8, ZeroDM: true}, 2)[0]
	exec := rdd.ExecConfig{Workers: 2}
	alloc := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunShard(context.Background(), shard, exec, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	alloc() // warm the scratch pools
	best := uint64(math.MaxUint64)
	for range 3 {
		best = min(best, alloc())
	}
	copyBytes := uint64(4 * nchans * nsamples)
	if best >= copyBytes*3/2 {
		t.Fatalf("RunShard allocated %d bytes, %.2f float32 copies of the %d-byte observation; want < 1.5",
			best, float64(best)/float64(copyBytes), copyBytes)
	}
}
