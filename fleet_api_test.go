package drapid_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"drapid"
	"drapid/internal/fleet"
	"drapid/internal/hdfs"
	"drapid/internal/rdd"
)

// fleetSynthSpec is a smaller fixture than detectSynthSpec, sized so the
// equivalence matrix stays fast: four pulses under DM 120.
func fleetSynthSpec() drapid.SynthSpec {
	return drapid.SynthSpec{
		NChans: 96, NSamples: 8192, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		SourceName: "J0000+00",
		Seed:       41,
		Pulses: []drapid.InjectedPulse{
			{TimeSec: 0.30, DM: 20, WidthMs: 2, SNR: 16},
			{TimeSec: 0.80, DM: 55, WidthMs: 3, SNR: 18},
			{TimeSec: 1.40, DM: 90, WidthMs: 4, SNR: 14},
			{TimeSec: 1.90, DM: 35, WidthMs: 2.5, SNR: 20},
		},
	}
}

// fleetDetectJob builds the shared job spec; shards == 0 means unsharded.
func fleetDetectJob(shards int, shardBy string) drapid.DetectJob {
	spec := fleetSynthSpec()
	return drapid.DetectJob{
		Synth: &spec,
		DMMax: 120, DMStep: 1,
		Threshold:  6.5,
		NormWindow: 1024,
		Shards:     shards,
		ShardBy:    shardBy,
	}
}

// runDetect submits the job, drains its stream, and returns the sorted
// candidate CSV lines plus the result.
func runDetect(t *testing.T, engine *drapid.Engine, spec drapid.DetectJob) ([]string, drapid.Result) {
	t.Helper()
	job, err := engine.SubmitDetect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for c, err := range job.Results() {
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, c.CSV())
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines, res
}

// TestFleetDetectMatchesSingleEngine is the scale-out acceptance test:
// for several shard × worker combinations, a DM-sharded fleet run must
// produce candidate records — and the ranked sifted view — identical
// record for record to the unsharded single-engine run.
func TestFleetDetectMatchesSingleEngine(t *testing.T) {
	single, err := drapid.New(drapid.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	wantLines, wantRes := runDetect(t, single, fleetDetectJob(0, ""))
	if len(wantLines) == 0 {
		t.Fatal("reference run produced no candidates")
	}

	// One worker × 4 shards runs every shard after the first on the
	// staging its Local's slot kept from the first.
	for _, tc := range []struct{ shards, workers int }{{2, 2}, {3, 2}, {5, 3}, {4, 1}} {
		engine, err := drapid.New(drapid.WithWorkers(4), drapid.WithFleetWorkers(tc.workers))
		if err != nil {
			t.Fatal(err)
		}
		gotLines, gotRes := runDetect(t, engine, fleetDetectJob(tc.shards, drapid.ShardByDM))
		if !reflect.DeepEqual(wantLines, gotLines) {
			t.Errorf("shards=%d workers=%d: candidates differ from single engine (%d vs %d records)",
				tc.shards, tc.workers, len(gotLines), len(wantLines))
		}
		if gotRes.Detections != wantRes.Detections {
			t.Errorf("shards=%d workers=%d: Detections = %d, single engine %d",
				tc.shards, tc.workers, gotRes.Detections, wantRes.Detections)
		}
		if !reflect.DeepEqual(gotRes.TopCandidates, wantRes.TopCandidates) {
			t.Errorf("shards=%d workers=%d: sifted top candidates differ", tc.shards, tc.workers)
		}
		if gotRes.Fleet == nil || gotRes.Fleet.Shards != tc.shards || gotRes.Fleet.Done != tc.shards {
			t.Errorf("shards=%d workers=%d: Result.Fleet = %+v", tc.shards, tc.workers, gotRes.Fleet)
		}
		engine.Close()
	}
}

// flakyWorkerServer wraps a real worker handler but kills the first
// shard request mid-stream — a worker process dying mid-shard, seen from
// the coordinator's side of the wire.
func flakyWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	exec := rdd.ExecConfig{Workers: 2}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	real := fleet.Handler(exec)
	var shardCalls atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && shardCalls.Add(1) == 1 {
			w.Header().Set("Content-Type", fleet.MediaFrames)
			w.WriteHeader(http.StatusOK)
			// A (bogus) one-event frame at DM 12345, then a dead connection
			// before the terminator: the coordinator must discard the
			// partials and resubmit.
			frame := binary.LittleEndian.AppendUint32([]byte{'E'}, 36)
			frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(12345))
			w.Write(append(frame, make([]byte, 28)...))
			panic(http.ErrAbortHandler)
		}
		real.ServeHTTP(w, r)
	}))
}

// TestFleetWorkerLossMidShard is the fault-injection acceptance test: one
// remote worker dies mid-shard on its first attempt, and the merged
// output must still be record-for-record identical to the single-engine
// run, with the resubmission visible in the job's fleet progress.
func TestFleetWorkerLossMidShard(t *testing.T) {
	single, err := drapid.New(drapid.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	wantLines, _ := runDetect(t, single, fleetDetectJob(0, ""))

	flaky := flakyWorkerServer(t)
	defer flaky.Close()
	exec := rdd.ExecConfig{Workers: 2}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	good := httptest.NewServer(fleet.Handler(exec))
	defer good.Close()

	engine, err := drapid.New(
		drapid.WithWorkers(4),
		drapid.WithRemoteWorkers(flaky.URL, good.URL),
		// The cut stream itself flags the loss; keep the heartbeat slack
		// enough that slow test machines never fail a healthy ping.
		drapid.WithFleetTuning(500*time.Millisecond, 3, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	gotLines, gotRes := runDetect(t, engine, fleetDetectJob(3, drapid.ShardByDM))
	if !reflect.DeepEqual(wantLines, gotLines) {
		t.Fatalf("candidates after worker loss differ from single engine (%d vs %d records)",
			len(gotLines), len(wantLines))
	}
	if gotRes.Fleet == nil || gotRes.Fleet.Resubmitted < 1 {
		t.Fatalf("Result.Fleet = %+v, want at least one resubmission", gotRes.Fleet)
	}
}

// TestFleetJournalRecovery is the crash-recovery acceptance test: an
// engine dies (Close ≈ crash) with a journaled job still running; a new
// engine over the same filesystem replays it under the same job ID and
// completes it with output identical to an undisturbed run.
func TestFleetJournalRecovery(t *testing.T) {
	single, err := drapid.New(drapid.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	wantLines, _ := runDetect(t, single, fleetDetectJob(0, ""))

	shared := hdfs.New(hdfs.Config{BlockSize: 8 << 20, Replication: 3}, 15)
	first, err := drapid.New(drapid.WithWorkers(4), drapid.WithFS(shared), drapid.WithJournal(), drapid.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	job, err := first.SubmitDetect(context.Background(), fleetDetectJob(2, drapid.ShardByDM))
	if err != nil {
		t.Fatal(err)
	}
	id := job.ID()
	first.Close() // crash: the job dies mid-flight, its journal entry survives
	if _, err := job.Wait(context.Background()); !errors.Is(err, drapid.ErrEngineClosed) {
		t.Fatalf("crashed job error = %v, want ErrEngineClosed", err)
	}

	second, err := drapid.New(drapid.WithWorkers(4), drapid.WithFS(shared), drapid.WithJournal(), drapid.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	recovered, err := second.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID() != id {
		t.Fatalf("Recover returned %d jobs (want 1 with ID %s)", len(recovered), id)
	}
	var lines []string
	for c, err := range recovered[0].Results() {
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, c.CSV())
	}
	sort.Strings(lines)
	if !reflect.DeepEqual(wantLines, lines) {
		t.Fatalf("recovered job candidates differ from undisturbed run (%d vs %d records)",
			len(lines), len(wantLines))
	}
	// The completed job's journal entry is erased (asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for second.FleetStatus().JournaledJobs != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal not emptied after recovery completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A fresh submission must not collide with the recovered ID.
	next, err := second.SubmitDetect(context.Background(), fleetDetectJob(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() == id {
		t.Fatalf("fresh job reused recovered ID %s", id)
	}
	next.Cancel()
}

// TestEngineDrain pins the graceful-shutdown half the daemon builds on:
// draining refuses new work with ErrDraining but lets the in-flight job
// finish, and Drain returns only once it has.
func TestEngineDrain(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	job, err := engine.SubmitDetect(context.Background(), fleetDetectJob(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- engine.Drain(context.Background()) }()

	// Draining must become visible to new submissions.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := engine.SubmitDetect(context.Background(), fleetDetectJob(0, ""))
		if errors.Is(err, drapid.ErrDraining) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never saw ErrDraining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != drapid.JobSucceeded {
		t.Fatalf("in-flight job state after drain = %v, want succeeded", st)
	}
	if !engine.FleetStatus().Draining {
		t.Fatal("FleetStatus does not report draining")
	}
}

// TestFleetValidation covers the sharding spec guard rails.
func TestFleetValidation(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	spec := fleetSynthSpec()
	cases := map[string]drapid.DetectJob{
		"no fleet":              {Synth: &spec, Shards: 2},
		"bad axis":              {Synth: &spec, Shards: 2, ShardBy: "beam"},
		"time axis":             {Synth: &spec, Shards: 2, ShardBy: "time"},
		"shards with streaming": {Synth: &spec, Shards: 2, BlockSamples: 4096},
		"negative shards":       {Synth: &spec, Shards: -1},
	}
	for name, spec := range cases {
		if _, err := engine.SubmitDetect(context.Background(), spec); err == nil {
			t.Errorf("%s: SubmitDetect accepted %+v", name, spec)
		}
	}
}
