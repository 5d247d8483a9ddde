package drapid_test

import (
	"context"
	"errors"
	"io"
	"math"
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

func TestDetectJobValidation(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	synth := &drapid.SynthSpec{NChans: 8, NSamples: 64}
	cases := map[string]drapid.DetectJob{
		"no input":             {},
		"both inputs":          {Filterbank: []byte{1}, Synth: synth},
		"bad DM range":         {Synth: synth, DMMin: 50, DMMax: 10, DMStep: 1},
		"bad DM step":          {Synth: synth, DMMin: 0, DMMax: 10, DMStep: -1},
		"bad threshold":        {Synth: synth, Threshold: -2},
		"bad buffer":           {Synth: synth, ResultBuffer: -1},
		"negative norm window": {Synth: synth, NormWindow: -1},
		"malformed key":        {Synth: synth, Key: "not-a-key"},
		// A comma splits the dataset into two CSV fields, and every
		// candidate of the job would be lost to the misread records.
		"comma in key": {Synth: synth, Key: "PAL,FA:58000:10:20:1"},
		// 3·10⁸ trials: refused before the grid is built.
		"huge DM grid":   {Synth: synth, DMMin: 0, DMMax: 300, DMStep: 1e-6},
		"bad plan":       {Synth: synth, Plan: "turbo"},
		"bad filterbank": {Filterbank: []byte("not a filterbank")},
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
