package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"drapid"
)

// iteration is one job driven through the public engine API.
type iteration struct {
	// submit, first and job are walls from the Submit* call: to its
	// return, to the first candidate out of Results(), and to Results()
	// drained and Wait returned.
	submit, first, job time.Duration
	cands              []drapid.Candidate
	res                drapid.Result
	out                outcome
	// cost is the allocator and GC work inside the timed window.
	cost runtimeCounters
	// livePeak is the sampled peak of live heap objects above the level
	// read just before submit (memory pass only).
	livePeak float64
}

// runJob drives one job in a closed loop: submit, drain Results, Wait.
// Everything after Wait — progress, removal, formatting and hashing the
// candidates — is outside the timed window. With sampled set it also
// polls the live heap (the memory pass).
func runJob(e *drapid.Engine, submit func() (*drapid.Job, error), sampled bool) (iteration, error) {
	var it iteration
	var sampler *heapSampler
	var base uint64
	if sampled {
		runtime.GC()
		base = liveHeapBytes()
		sampler = startHeapSampler()
	}
	before := readRuntime()
	t0 := time.Now()
	job, err := submit()
	if err != nil {
		if sampler != nil {
			sampler.peakBytes()
		}
		return it, fmt.Errorf("submit: %w", err)
	}
	it.submit = time.Since(t0)
	var streamErr error
	for c, err := range job.Results() {
		if err != nil {
			streamErr = err
			break
		}
		if len(it.cands) == 0 {
			it.first = time.Since(t0)
		}
		it.cands = append(it.cands, c)
	}
	it.res, err = job.Wait(context.Background())
	it.job = time.Since(t0)
	it.cost = readRuntime().sub(before)
	if sampler != nil {
		it.livePeak = float64(sampler.peakBytes()) - float64(base)
	}
	prog := job.Progress()
	if rmErr := e.Remove(job.ID()); err == nil {
		err = rmErr
	}
	if err = errors.Join(streamErr, err); err != nil {
		return it, err
	}

	lines := make([]string, len(it.cands))
	for i, c := range it.cands {
		lines[i] = c.CSV()
	}
	it.out = outcome{
		digest: digestLines(lines), records: len(lines),
		detections: it.res.Detections, top: it.res.TopCandidates, sources: it.res.Sources,
	}
	switch {
	case len(it.cands) == 0:
		return it, errors.New("job produced no candidates")
	case it.res.Records != len(it.cands):
		return it, fmt.Errorf("Result.Records = %d but %d candidates streamed", it.res.Records, len(it.cands))
	case prog.RecordsDropped != 0:
		return it, fmt.Errorf("Progress.RecordsDropped = %d", prog.RecordsDropped)
	case it.res.Fleet != nil && it.res.Fleet.Resubmitted != 0:
		return it, fmt.Errorf("fleet resubmitted %d shard attempts", it.res.Fleet.Resubmitted)
	}
	return it, nil
}

// runOnce runs the workload's own job on e.
func (in *instance) runOnce(e *drapid.Engine, sampled bool) (iteration, error) {
	if in.prepare != nil {
		if err := in.prepare(); err != nil {
			return iteration{}, fmt.Errorf("prepare: %w", err)
		}
	}
	return runJob(e, func() (*drapid.Job, error) { return in.submit(e) }, sampled)
}

// digestLines hashes the sorted lines: Results() yields key groups in
// arbitrary order, so sorting gives the canonical form.
func digestLines(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// runConfig is what the flags (or the test) choose.
type runConfig struct {
	seed             int64
	seconds          float64 // length of the timed pass
	minIter          int     // timed iterations at least, however long they take
	setups           int     // how many times setup runs at least, for setup_s
	endToEnd, layers bool
	scale            int
	workers          int
	outDir           string
}

// workloadResult is one workload's section of results.json.
type workloadResult struct {
	Sizes  map[string]any `json:"sizes"`
	Warmup int            `json:"warmup"`
	N      int            `json:"n"`
	// PassSeconds are the wall durations of the run's passes.
	PassSeconds map[string]float64 `json:"pass_seconds"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Correct     bool               `json:"correct"`
	// JobSeconds are the timed pass's job walls in run order.
	JobSeconds []float64          `json:"job_seconds"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
}

// runWorkload runs one workload's passes in their fixed order: setup →
// reference → warm-up → timed pass → memory pass → layer pass.
func runWorkload(w workload, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Warmup: w.warmup, PassSeconds: map[string]float64{}}
	pass := func(name string, t0 time.Time) { res.PassSeconds[name] = time.Since(t0).Seconds() }
	fail := func(what string, err error) {
		res.Failed++
		res.Failures = append(res.Failures, what+": "+err.Error())
		fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", w.name, what, err)
	}

	// Setup: inputs and engine, built several times so that setup_s is a
	// median; the last build is the one the passes use. A 0.1 s setup that
	// writes a file or starts servers now and then takes twice as long, so
	// cheap setups repeat up to seven times while they fit in two seconds.
	t0 := time.Now()
	var in *instance
	var engine *drapid.Engine
	var setups []float64
	for i := 0; i < cfg.setups || (cfg.setups > 1 && i < 7 && time.Since(t0) < 2*time.Second); i++ {
		if in != nil {
			engine.Close()
			in.close()
			in, engine = nil, nil
			runtime.GC()
		}
		ts := time.Now()
		var err error
		if in, err = w.setup(cfg.seed, cfg.scale, cfg.outDir); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		if engine, err = in.newEngine(cfg.workers); err != nil {
			in.close()
			return nil, fmt.Errorf("%s: building engine: %w", w.name, err)
		}
		setups = append(setups, time.Since(ts).Seconds())
	}
	defer func() {
		engine.Close()
		in.close()
	}()
	res.Sizes = in.sizes
	pass("setup", t0)

	t0 = time.Now()
	res.Attempted++
	ref, err := in.reference(engine)
	if err != nil {
		fail("reference", err)
	}
	pass("reference", t0)

	// check holds every iteration to the first one's records and to the
	// reference.
	var first *outcome
	var recall float64
	var missed []string
	check := func(what string, it iteration, err error) bool {
		res.Attempted++
		if err == nil && first == nil {
			first = &it.out
			recall, missed = in.recall(it.cands)
		}
		if err == nil {
			err = sameRecords(*first, it.out)
		}
		if err == nil {
			err = in.same(ref, it.out)
		}
		if err != nil {
			fail(what, err)
		}
		return err == nil
	}

	t0 = time.Now()
	for i := 0; i < w.warmup; i++ {
		it, err := in.runOnce(engine, false)
		check(fmt.Sprintf("warm-up %d", i), it, err)
	}
	pass("warmup", t0)

	// Timed pass: default GC, no sampler, nothing else running.
	t0 = time.Now()
	var timed []iteration
	for i := 0; i < cfg.minIter || time.Since(t0).Seconds() < cfg.seconds; i++ {
		it, err := in.runOnce(engine, false)
		if check(fmt.Sprintf("timed %d", i), it, err) {
			it.cands = nil // checked; keeping them would grow the heap the next job runs in
			timed = append(timed, it)
		}
		if res.Failed > 3 {
			break // a broken workload need not run out its clock
		}
	}
	pass("timed", t0)
	res.N = len(timed)
	if len(timed) == 0 {
		return res, nil
	}
	res.JobSeconds = column(timed, func(it iteration) float64 { return it.job.Seconds() })
	jobs := summarize("s", res.JobSeconds...)
	if recall < in.minRecall {
		fail("recall", fmt.Errorf("%.3f is below the %.1f gate; missed %v", recall, in.minRecall, missed))
	}

	if cfg.endToEnd {
		// Memory pass: a tight GC marks the heap often, and a 2 ms sampler
		// takes the peak of what each mark found live. How far ingest runs
		// ahead of search, and which tasks overlap, differs from job to job,
		// so one job's peak has a few modes up to 15 % apart: the mean over
		// four jobs is the steady statistic. The first job under the new GC
		// setting reads low and is discarded.
		t0 = time.Now()
		old := debug.SetGCPercent(10)
		var peaks []float64
		for i := 0; i < 5; i++ {
			it, err := in.runOnce(engine, true)
			if check(fmt.Sprintf("memory %d", i), it, err) && i > 0 {
				peaks = append(peaks, it.livePeak/(1<<20))
			}
		}
		debug.SetGCPercent(old)
		pass("memory", t0)

		peak := summarize("MiB", peaks...)
		peak.Value = 0
		for _, p := range peaks {
			peak.Value += p / float64(len(peaks))
		}
		rtf := jobs
		rtf.Unit = "obs-s/s"
		rtf.Value, rtf.Min, rtf.Q1, rtf.Q3, rtf.Max = in.obsSeconds/jobs.Value, in.obsSeconds/jobs.Max,
			in.obsSeconds/jobs.Q3, in.obsSeconds/jobs.Q1, in.obsSeconds/jobs.Min
		res.EndToEnd = map[string]summary{
			"job_s":             jobs,
			"rtf":               rtf,
			"first_candidate_s": summarize("s", column(timed, func(it iteration) float64 { return it.first.Seconds() })...),
			"live_peak_mb":      peak,
			"recall":            summarize("fraction", recall),
			"setup_s":           summarize("s", setups...),
		}
	}

	if cfg.layers {
		t0 = time.Now()
		res.Attempted++
		tr := newTracer()
		layer, err := layerPass(tr, in, cfg, timed)
		if err != nil {
			fail("layer pass", err)
		}
		res.PerLayer = layer
		if err := writeJSON(fmt.Sprintf("%s/trace-%s.json", cfg.outDir, w.name),
			traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.finish()}); err != nil {
			return nil, err
		}
		pass("layers", t0)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// column takes one number from every iteration.
func column(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}
