package drapid_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"drapid"
)

// The Result.Stages contract (DESIGN.md §10): every detect path reports a
// per-stage breakdown whose wall seconds partition the job's
// DetectSeconds — apportioning makes the shares sum to the elapsed time
// by construction, so these tests pin the sum within a small timing
// tolerance rather than any per-stage duration.

// stageTolerance is the allowed relative error between the summed stage
// walls and DetectSeconds, plus a small absolute floor for clock jitter
// on very fast runs.
const (
	stageTolerance = 0.05
	stageFloorSec  = 0.005
)

// runDetectJob submits spec, drains the candidate stream, and returns
// the finished job with its result.
func runDetectJob(t *testing.T, engine *drapid.Engine, spec drapid.DetectJob) (*drapid.Job, drapid.Result) {
	t.Helper()
	job, err := engine.SubmitDetect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range job.Results() {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return job, res
}

// stageSum adds up the wall seconds of the named stages, failing on any
// that are missing from the breakdown.
func stageSum(t *testing.T, stages map[string]drapid.StageStats, names ...string) float64 {
	t.Helper()
	var sum float64
	for _, name := range names {
		st, ok := stages[name]
		if !ok {
			t.Fatalf("Result.Stages missing stage %q (have %v)", name, stageNames(stages))
		}
		if st.WallSeconds < 0 {
			t.Fatalf("stage %q wall %g < 0", name, st.WallSeconds)
		}
		sum += st.WallSeconds
	}
	return sum
}

func stageNames(stages map[string]drapid.StageStats) []string {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	return names
}

// wantClose asserts sum ≈ total within the partition tolerance.
func wantClose(t *testing.T, what string, sum, total float64) {
	t.Helper()
	diff := sum - total
	if diff < 0 {
		diff = -diff
	}
	if diff > total*stageTolerance+stageFloorSec {
		t.Errorf("%s: stage walls sum to %.4fs, DetectSeconds = %.4fs (diff %.4fs beyond %.0f%%)",
			what, sum, total, diff, 100*stageTolerance)
	}
}

// TestDetectStagesPartition checks every detect path against the one
// clock: DetectSeconds spans the whole work function — source, segments,
// final sift view — so every reported stage joins the partition. On the
// fleet path the worker-side stage seconds come back over the wire and
// fold across shards first.
func TestDetectStagesPartition(t *testing.T) {
	for name, tc := range map[string]struct {
		opts   []drapid.Option
		job    drapid.DetectJob
		scrape []string // registry lines beyond the per-job ones
	}{
		"batch":     {},
		"streaming": {job: drapid.DetectJob{BlockSamples: 4096}},
		"fleet": {
			opts: []drapid.Option{drapid.WithWorkers(4), drapid.WithFleetWorkers(2)},
			job:  drapid.DetectJob{Shards: 4},
			scrape: []string{
				"drapid_fleet_workers_known 2",
				"drapid_fleet_shards_done_total",
				"drapid_fleet_shard_attempts_total",
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			reg := drapid.NewMetricsRegistry()
			engine, err := drapid.New(append(tc.opts, drapid.WithMetrics(reg))...)
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()

			spec := detectSynthSpec()
			tc.job.Synth, tc.job.Threshold = &spec, 6.5
			job, res := runDetectJob(t, engine, tc.job)
			if tc.job.Shards > 1 && (res.Fleet == nil || res.Fleet.Done == 0) {
				t.Fatalf("Result.Fleet = %+v, want completed shards", res.Fleet)
			}

			// Every stage reports (stageSum fails on a missing one), and
			// together they partition the clock.
			stageSum(t, res.Stages, "ingest", "zerodm", "dedisperse", "normalise", "boxcar", "cluster", "classify", "sift")
			sum := stageSum(t, res.Stages, stageNames(res.Stages)...)
			wantClose(t, name, sum, res.DetectSeconds)
			if in := res.Stages["ingest"]; in.RecordsOut != int64(spec.NSamples) || in.Bytes == 0 {
				t.Errorf("ingest stage = %+v, want %d records out and nonzero bytes", in, spec.NSamples)
			}
			if cl := res.Stages["classify"]; cl.RecordsOut != int64(res.Records) {
				t.Errorf("classify RecordsOut = %d, want %d", cl.RecordsOut, res.Records)
			}
			if p := job.Progress(); len(p.Stages) == 0 {
				t.Error("Progress.Stages empty after completion")
			}

			// The job's stage walls also feed the engine registry.
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			scrape := b.String()
			for _, want := range append([]string{
				`drapid_job_stage_seconds_count{stage="dedisperse"}`,
				`drapid_jobs_submitted_total{kind="detect"} 1`,
				`drapid_jobs_finished_total{kind="detect",state="succeeded"} 1`,
				`drapid_job_seconds_count{kind="detect"} 1`,
			}, tc.scrape...) {
				if !strings.Contains(scrape, want) {
					t.Errorf("registry scrape missing %q", want)
				}
			}
		})
	}
}

// TestConcurrentJobsMetrics hammers one registry from several jobs at
// once (the -race CI run is the point): the lifecycle counters must
// balance exactly when the dust settles.
func TestConcurrentJobsMetrics(t *testing.T) {
	reg := drapid.NewMetricsRegistry()
	engine, err := drapid.New(drapid.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	const jobs = 4
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := drapid.SynthSpec{
				NChans: 32, NSamples: 4096, TsampSec: 256e-6,
				Seed:   int64(i + 1),
				Pulses: []drapid.InjectedPulse{{TimeSec: 0.3, DM: 30, WidthMs: 3, SNR: 20}},
			}
			job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
				Synth: &spec, DMMax: 60, DMStep: 1, Threshold: 6.5,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for _, err := range job.Results() {
				if err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := job.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	for _, want := range []string{
		`drapid_jobs_submitted_total{kind="detect"} 4`,
		`drapid_jobs_finished_total{kind="detect",state="succeeded"} 4`,
		"drapid_jobs_running 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("registry scrape missing %q", want)
		}
	}
}

// TestDetectStagesKernelRows checks that on every detect path the three
// search-kernel rows carry volumes, not just seconds: one call per trial,
// dedispersed samples in and out, and — for boxcar — the job's detections
// out (ROADMAP aim 4: the -stats table reported zeros there).
func TestDetectStagesKernelRows(t *testing.T) {
	for name, tc := range map[string]struct {
		opts []drapid.Option
		job  drapid.DetectJob
	}{
		"batch":     {},
		"streaming": {job: drapid.DetectJob{BlockSamples: 4096}},
		"fleet": {
			opts: []drapid.Option{drapid.WithWorkers(4), drapid.WithFleetWorkers(2)},
			job:  drapid.DetectJob{Shards: 4},
		},
	} {
		t.Run(name, func(t *testing.T) {
			engine, err := drapid.New(append(tc.opts, drapid.WithMetrics(drapid.NewMetricsRegistry()))...)
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			spec := detectSynthSpec()
			tc.job.Synth, tc.job.Threshold = &spec, 6.5
			_, res := runDetectJob(t, engine, tc.job)
			for _, stage := range []string{"dedisperse", "normalise", "boxcar"} {
				st := res.Stages[stage]
				if st.Calls == 0 || st.RecordsIn == 0 || st.RecordsOut == 0 || st.Bytes == 0 {
					t.Errorf("stage %q = %+v, want non-zero calls, records and bytes", stage, st)
				}
			}
			if out := res.Stages["boxcar"].RecordsOut; out != int64(res.Detections) {
				t.Errorf("boxcar RecordsOut = %d, want the job's %d detections", out, res.Detections)
			}
		})
	}
}
