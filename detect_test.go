package drapid_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"drapid"
)

// detectSynthSpec is the end-to-end fixture: a ~4.2 s synthetic band with
// ten injected pulses of known DM/width/SNR, all comfortably above the
// detection threshold, plus a broadband RFI burst.
func detectSynthSpec() drapid.SynthSpec {
	return drapid.SynthSpec{
		NChans: 128, NSamples: 16384, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		SourceName: "J1234+56",
		Seed:       29,
		Pulses: []drapid.InjectedPulse{
			{TimeSec: 0.30, DM: 18, WidthMs: 2, SNR: 16},
			{TimeSec: 0.65, DM: 45, WidthMs: 4, SNR: 13},
			{TimeSec: 1.00, DM: 70, WidthMs: 3, SNR: 22},
			{TimeSec: 1.35, DM: 98, WidthMs: 5, SNR: 14},
			{TimeSec: 1.70, DM: 125, WidthMs: 2.5, SNR: 18},
			{TimeSec: 2.05, DM: 152, WidthMs: 6, SNR: 15},
			{TimeSec: 2.40, DM: 180, WidthMs: 3.5, SNR: 20},
			{TimeSec: 2.75, DM: 210, WidthMs: 4.5, SNR: 12},
			{TimeSec: 3.10, DM: 240, WidthMs: 5.5, SNR: 17},
			{TimeSec: 3.45, DM: 268, WidthMs: 3, SNR: 25},
		},
		RFI: []drapid.RFIBurst{{TimeSec: 1.52, WidthMs: 4, Amp: 3}},
	}
}

// featureIndex resolves a Table 1 feature name to its vector index.
func featureIndex(t *testing.T, name string) int {
	t.Helper()
	for i, n := range drapid.FeatureNames() {
		if n == name {
			return i
		}
	}
	t.Fatalf("no feature named %q", name)
	return -1
}

// TestDetectJobRecall is the acceptance test for the single-pulse search
// frontend: ≥90% of the injected pulses must come back out of the full
// detect → cluster → identify pipeline as streamed candidates.
func TestDetectJobRecall(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	spec := detectSynthSpec()
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Synth:     &spec,
		Threshold: 6.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	var cands []drapid.Candidate
	for c, err := range job.Results() {
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Detections < len(cands) {
		t.Fatalf("Detections = %d with %d candidates", res.Detections, len(cands))
	}
	if res.DetectSeconds <= 0 {
		t.Fatalf("DetectSeconds = %g", res.DetectSeconds)
	}
	if res.Records != len(cands) {
		t.Fatalf("Records = %d, streamed %d", res.Records, len(cands))
	}
	if p := job.Progress(); p.Detections != res.Detections {
		t.Fatalf("Progress.Detections = %d, Result.Detections = %d", p.Detections, res.Detections)
	}
	// The default plan must resolve to the two-stage subband path on a
	// realistic band — the recall gate below is scored against it.
	if !strings.HasPrefix(res.Plan, "subband(") {
		t.Fatalf("Result.Plan = %q, want the subband default", res.Plan)
	}

	peakDM := featureIndex(t, "SNRPeakDM")
	startT := featureIndex(t, "StartTime")
	stopT := featureIndex(t, "StopTime")
	recovered := 0
	for _, p := range spec.Pulses {
		center := p.TimeSec + p.WidthMs/2000
		found := false
		for _, c := range cands {
			if math.Abs(c.Features[peakDM]-p.DM) <= 6 &&
				c.Features[startT] <= center+0.05 &&
				c.Features[stopT] >= center-0.05 {
				found = true
				break
			}
		}
		if found {
			recovered++
		} else {
			t.Logf("missed injection %+v", p)
		}
	}
	recall := float64(recovered) / float64(len(spec.Pulses))
	t.Logf("end-to-end recall %d/%d = %.0f%% (%d detections → %d candidates)",
		recovered, len(spec.Pulses), 100*recall, res.Detections, len(cands))
	if recall < 0.9 {
		t.Fatalf("end-to-end recall %.2f below 0.90", recall)
	}

	// The derived observation key carries the sanitised source name.
	for _, c := range cands {
		if !strings.HasPrefix(c.Key, "J1234+56:") {
			t.Fatalf("candidate key %q does not carry the source name", c.Key)
		}
	}
}

// TestDetectJobFromFilterbankBytes runs the same pipeline from serialised
// SIGPROC bytes — the path real recorded observations take.
func TestDetectJobFromFilterbankBytes(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	raw, err := drapid.GenerateFilterbank(drapid.SynthSpec{
		NChans: 64, NSamples: 8192, TsampSec: 256e-6,
		Seed:   5,
		Pulses: []drapid.InjectedPulse{{TimeSec: 0.5, DM: 60, WidthMs: 4, SNR: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Filterbank: raw,
		DMMin:      0, DMMax: 120, DMStep: 1,
		Key:  "TESTSET:55000.0000:10.0000:-5.0000:2",
		Plan: "brute", // keep the oracle path covered end to end
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for c, err := range job.Results() {
		if err != nil {
			t.Fatal(err)
		}
		if c.Key != "TESTSET:55000.0000:10.0000:-5.0000:2" {
			t.Fatalf("candidate key %q, want the explicit key", c.Key)
		}
		n++
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no candidates from an SNR-25 injection")
	}
	if res.Plan != "brute" {
		t.Fatalf("Result.Plan = %q, want the forced brute oracle", res.Plan)
	}
}

// invalidDetectJobs loads the specs every entry refuses — SubmitDetect,
// a journal replay, and drapidd's POST /v1/detect body and stream query —
// in their JSON form, by name (testdata/detect_invalid.json). A comma in
// a key would split the dataset into two CSV fields and lose every
// candidate of the job to misread records; the huge DM grid's 3·10⁸
// trials must be refused before the grid is built. Malformed filterbank
// bytes are only discovered asynchronously: that job is accepted and must
// then fail, not hang or panic.
func invalidDetectJobs(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "detect_invalid.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases map[string]json.RawMessage
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

func TestDetectJobValidation(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	cases := map[string]drapid.DetectJob{
		// ResultBuffer has no JSON form: only the Go API can set it.
		"bad buffer": {Synth: &drapid.SynthSpec{NChans: 8, NSamples: 64}, ResultBuffer: -1},
		// JSON cannot spell NaN, but a stream query can.
		"NaN threshold": {Synth: &drapid.SynthSpec{NChans: 8, NSamples: 64}, Threshold: math.NaN()},
	}
	for name, raw := range invalidDetectJobs(t) {
		var spec drapid.DetectJob
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = spec
	}
	for name, spec := range cases {
		job, err := engine.SubmitDetect(context.Background(), spec)
		if err != nil {
			continue // rejected synchronously: good
		}
		if name != "bad filterbank" {
			t.Errorf("%s: accepted", name)
			continue
		}
		// Malformed bytes are only discovered asynchronously; the job
		// must fail, not hang or panic.
		if _, err := job.Wait(context.Background()); err == nil {
			t.Errorf("%s: job succeeded", name)
		}
	}
}

// TestDetectJobValidationOnReplay: a journal entry holding a spec that
// SubmitDetect refuses makes Recover fail, so a restarted engine holds
// its journal to the same bounds as a fresh submission.
func TestDetectJobValidationOnReplay(t *testing.T) {
	for name, raw := range invalidDetectJobs(t) {
		dir := t.TempDir()
		entry := fmt.Sprintf(`{"id":"job-1","spec":%s}`, raw)
		if err := os.WriteFile(filepath.Join(dir, "job-1"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		engine, err := drapid.New(drapid.WithJournalDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := engine.Recover(context.Background())
		switch {
		case name == "bad filterbank":
			if err != nil || len(jobs) != 1 {
				t.Errorf("%s: Recover = %d jobs, %v; want the job replayed", name, len(jobs), err)
			} else if _, err := jobs[0].Wait(context.Background()); err == nil {
				t.Errorf("%s: replayed job succeeded", name)
			}
		case err == nil:
			t.Errorf("%s: replayed", name)
		}
		engine.Close()
	}
}

// TestDetectJobHugeBlockSamples: a block_samples past the observation —
// MaxInt64 here, which would wrap the gulp plus its overlap — searches the
// observation in one gulp, exactly as a gulp of the whole observation
// does, whether the spec arrives as a submission or as a journal entry a
// restarted engine replays.
func TestDetectJobHugeBlockSamples(t *testing.T) {
	const spec = `{"synth":{"nchans":64,"nsamples":8192,"seed":3,` +
		`"pulses":[{"time_sec":0.5,"dm":60,"width_ms":4,"snr":25}]},"dm_max":90,"dm_step":1,"block_samples":%d}`
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	run := func(block int) drapid.Result {
		var job drapid.DetectJob
		if err := json.Unmarshal(fmt.Appendf(nil, spec, block), &job); err != nil {
			t.Fatal(err)
		}
		j, err := engine.SubmitDetect(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("block_samples %d: %v", block, err)
		}
		return res
	}
	want := run(8192)
	if want.Detections == 0 {
		t.Fatal("whole-observation gulp found nothing to compare")
	}
	if got := run(math.MaxInt64); got.Detections != want.Detections || got.Records != want.Records {
		t.Fatalf("MaxInt64 gulp: %d detections, %d records; want %d, %d",
			got.Detections, got.Records, want.Detections, want.Records)
	}

	dir := t.TempDir()
	entry := fmt.Sprintf(`{"id":"job-1","spec":`+spec+`}`, math.MaxInt64)
	if err := os.WriteFile(filepath.Join(dir, "job-1"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	replay, err := drapid.New(drapid.WithWorkers(2), drapid.WithJournalDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	jobs, err := replay.Recover(context.Background())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("Recover = %d jobs, %v; want the entry replayed", len(jobs), err)
	}
	got, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatalf("replayed MaxInt64 gulp: %v", err)
	}
	if got.Detections != want.Detections || got.Records != want.Records {
		t.Fatalf("replayed MaxInt64 gulp: %d detections, %d records; want %d, %d",
			got.Detections, got.Records, want.Detections, want.Records)
	}
}

// TestDetectJobRecallStreaming holds the same ≥90% end-to-end gate on the
// block-streaming path: the identical fixture searched in bounded-memory
// gulps, clustered and identified segment by segment, must still recover
// the injected pulses through the streamed candidates.
func TestDetectJobRecallStreaming(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	spec := detectSynthSpec()
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Synth:        &spec,
		Threshold:    6.5,
		BlockSamples: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cands []drapid.Candidate
	for c, err := range job.Results() {
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Fatal("streaming detect reported no raw events")
	}
	if res.Records != len(cands) {
		t.Fatalf("Records = %d, streamed %d", res.Records, len(cands))
	}
	if !strings.HasPrefix(res.Plan, "subband(") {
		t.Fatalf("Result.Plan = %q, want the subband default", res.Plan)
	}
	peakDM := featureIndex(t, "SNRPeakDM")
	startT := featureIndex(t, "StartTime")
	stopT := featureIndex(t, "StopTime")
	recovered := 0
	for _, p := range spec.Pulses {
		center := p.TimeSec + p.WidthMs/2000
		for _, c := range cands {
			if math.Abs(c.Features[peakDM]-p.DM) <= 6 &&
				c.Features[startT] <= center+0.05 &&
				c.Features[stopT] >= center-0.05 {
				recovered++
				break
			}
		}
	}
	recall := float64(recovered) / float64(len(spec.Pulses))
	t.Logf("streaming end-to-end recall %d/%d = %.0f%% (%d detections → %d candidates)",
		recovered, len(spec.Pulses), 100*recall, res.Detections, len(cands))
	if recall < 0.9 {
		t.Fatalf("streaming end-to-end recall %.2f below 0.90", recall)
	}
}

// TestDetectJobStreamCancelMidIngest cancels a streaming detect job while
// its FilterbankStream source is stalled mid-observation: the job must
// reach the cancelled state promptly once the source unblocks, and the
// candidate stream must terminate with the cancellation cause instead of
// hanging.
func TestDetectJobStreamCancelMidIngest(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	raw, err := drapid.GenerateFilterbank(drapid.SynthSpec{
		NChans: 32, NSamples: 16384, TsampSec: 256e-6,
		Seed:   9,
		Pulses: []drapid.InjectedPulse{{TimeSec: 0.5, DM: 30, WidthMs: 4, SNR: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.Write(raw[:len(raw)/2]) // header + early blocks, then stall
	}()
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		FilterbankStream: pr,
		BlockSamples:     2048,
		DMMin:            0, DMMax: 60, DMStep: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	streamDone := make(chan error, 1)
	go func() {
		for _, err := range job.Results() {
			if err != nil {
				streamDone <- err
				return
			}
		}
		streamDone <- nil
	}()

	job.Cancel()
	pw.CloseWithError(errors.New("source detached")) // unblock the stalled read

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, drapid.ErrCancelled) {
		t.Fatalf("Wait returned %v, want ErrCancelled", err)
	}
	if s := job.State(); s != drapid.JobCancelled {
		t.Fatalf("state = %v", s)
	}
	select {
	case err := <-streamDone:
		if !errors.Is(err, drapid.ErrCancelled) {
			t.Fatalf("candidate stream ended with %v, want ErrCancelled", err)
		}
	case <-ctx.Done():
		t.Fatal("candidate stream hung after cancellation")
	}
}

// TestDetectJobsBypassSimulation pins where a detect job's identification
// runs: every source — batch, block stream, DM shards on a fleet —
// identifies its segments in memory, so the job executes no scheduler task,
// leaves nothing in the engine filesystem, and times one classify call per
// flushed segment.
func TestDetectJobsBypassSimulation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []drapid.Option
		job      drapid.DetectJob
		segments func(n int64) bool
	}{
		{name: "batch", segments: func(n int64) bool { return n == 1 }},
		{name: "block", job: drapid.DetectJob{BlockSamples: 4096}, segments: func(n int64) bool { return n > 1 }},
		{
			name:     "fleet",
			opts:     []drapid.Option{drapid.WithFleetWorkers(2)},
			job:      drapid.DetectJob{Shards: 4},
			segments: func(n int64) bool { return n == 1 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := drapid.NewMetricsRegistry()
			engine, err := drapid.New(append(tc.opts, drapid.WithMetrics(reg))...)
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			spec := detectSynthSpec()
			tc.job.Synth, tc.job.Threshold = &spec, 6.5
			job, res := runDetectJob(t, engine, tc.job)
			if res.Records == 0 {
				t.Fatal("no candidates: nothing was identified")
			}
			if res.Tasks != 0 || res.RDDStages != 0 || res.OutDir != "" {
				t.Errorf("Result.Tasks = %d, RDDStages = %d, OutDir = %q; want 0, 0, empty",
					res.Tasks, res.RDDStages, res.OutDir)
			}
			for _, name := range engine.FS().List() {
				if strings.HasPrefix(name, "jobs/"+job.ID()+"/") {
					t.Errorf("detect job left %s in the engine filesystem", name)
				}
			}
			classify, cluster := res.Stages["classify"].Calls, res.Stages["cluster"].Calls
			if classify != cluster || !tc.segments(classify) {
				t.Errorf("classify calls = %d over %d flushed segments", classify, cluster)
			}
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(strings.Split(b.String(), "\n"), "drapid_rdd_tasks_total 0") {
				t.Error(`registry scrape lacks the line "drapid_rdd_tasks_total 0"`)
			}
		})
	}
}

// TestDetectStreamCandidatesMatchBatch holds the block stream's candidates
// to the batch path's record for record — cluster ids included, which the
// segmenter shifts by the clusters of earlier segments — except ClusterRank,
// the one feature ranked per segment when streamed (DESIGN.md §8.4).
// NormWindow is pinned so both modes normalise alike.
func TestDetectStreamCandidatesMatchBatch(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	spec := siftSynthSpec()
	rank := featureIndex(t, "ClusterRank")
	run := func(block int) []string {
		job, res := runDetectJob(t, engine, drapid.DetectJob{
			Synth: &spec, Threshold: 6.5, NormWindow: 1024, NoZeroDM: true, BlockSamples: block,
		})
		var out []string
		for c, err := range job.Results() {
			if err != nil {
				t.Fatal(err)
			}
			c.Features[rank] = 0
			out = append(out, c.CSV())
		}
		if len(out) != res.Records {
			t.Fatalf("block %d: %d candidates, Result.Records %d", block, len(out), res.Records)
		}
		slices.Sort(out)
		return out
	}
	batch, stream := run(0), run(2048)
	if len(batch) == 0 {
		t.Fatal("batch identified no candidates")
	}
	if !slices.Equal(stream, batch) {
		t.Fatalf("stream candidates differ from batch:\nstream: %q\n batch: %q", stream, batch)
	}
}

func TestDetectJobCancel(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	spec := detectSynthSpec()
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{Synth: &spec})
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err == nil {
		t.Fatal("cancelled detect job returned nil error")
	}
	if s := job.State(); s != drapid.JobCancelled {
		t.Fatalf("state = %v", s)
	}
}

// TestDetectHoldsObservationOnce is the memory gate of the in-memory detect
// path: a one-gulp job over an ingested 32-bit observation allocates its
// channel-major staging — one float32 copy of the data — and not a decoded
// sample-major twin beside it, because the search decodes the caller's
// bytes tile by tile as it stages them. GC is off while measuring, so
// pooled scratch stays pooled after a warm-up job; the best of three jobs
// must stay under 1.5 copies.
func TestDetectHoldsObservationOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	const nchans, nsamples = 128, 32768 // 16 MiB of float32
	raw, err := drapid.GenerateFilterbank(drapid.SynthSpec{
		NChans: nchans, NSamples: nsamples, TsampSec: 256e-6, Fch1MHz: 1500, FoffMHz: -2, Seed: 3,
		Pulses: []drapid.InjectedPulse{{TimeSec: 4, DM: 12, WidthMs: 2, SNR: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	spec := drapid.DetectJob{Filterbank: raw, DMMax: 20, DMStep: 1, Threshold: 8}
	alloc := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runDetectJob(t, engine, spec)
		runtime.ReadMemStats(&after)
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
		t.Fatalf("one-gulp detect allocated %d bytes, %.2f float32 copies of the %d-byte observation; want < 1.5",
			best, float64(best)/float64(copyBytes), copyBytes)
	}
	t.Logf("one-gulp detect allocated %.2f float32 copies of the observation", float64(best)/float64(copyBytes))
}
