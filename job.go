package drapid

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"log/slog"
	"sync"
	"time"

	"drapid/internal/features"
	"drapid/internal/obs"
	"drapid/internal/pipeline"
	"drapid/internal/rdd"
)

// ErrCancelled is the cancellation cause Job.Cancel installs; it is what a
// cancelled job's Results stream and Wait return (via errors.Is).
var ErrCancelled = errors.New("drapid: job cancelled")

// ErrEngineClosed is the cancellation cause Engine.Close installs on jobs
// that were still running.
var ErrEngineClosed = errors.New("drapid: engine closed")

// JobState is a job's position in its lifecycle. The state machine is
// linear: Pending → Running → exactly one of Succeeded, Failed or
// Cancelled (see DESIGN.md §4.2).
type JobState int

const (
	// JobPending means the job is registered but its driver has not
	// started executing stages yet.
	JobPending JobState = iota
	// JobRunning means stages are executing on the worker pool.
	JobRunning
	// JobSucceeded means the job completed and its result is final.
	JobSucceeded
	// JobFailed means the job stopped on a non-cancellation error.
	JobFailed
	// JobCancelled means Cancel (or the submission context) stopped the
	// job before completion.
	JobCancelled
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s >= JobSucceeded }

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// MarshalText makes JobState render as its name in JSON (the HTTP API's
// progress documents).
func (s JobState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name produced by MarshalText.
func (s *JobState) UnmarshalText(text []byte) error {
	for _, st := range []JobState{JobPending, JobRunning, JobSucceeded, JobFailed, JobCancelled} {
		if st.String() == string(text) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("drapid: unknown job state %q", text)
}

// Candidate is one identified single pulse streamed out of a job: the
// observation key, the source cluster and pulse rank within it, and the 22
// extracted features in FeatureNames order.
type Candidate struct {
	Key       string    `json:"key"`
	Cluster   int       `json:"cluster"`
	PulseRank int       `json:"pulse_rank"`
	Features  []float64 `json:"features"`
}

// FeatureNames lists the 22 feature columns of Candidate.Features, in
// order (Table 1 of the paper).
func FeatureNames() []string {
	out := make([]string, len(features.Names))
	copy(out, features.Names[:])
	return out
}

// CandidateHeader is the CSV header matching Candidate.CSV.
var CandidateHeader = pipeline.MLHeader

// CSV renders the candidate as one ML-file CSV line by delegating to the
// pipeline's record formatter, so it stays byte-identical to the record
// the batch path saves to HDFS for the same pulse. Candidates always
// carry exactly the 22 features of FeatureNames.
func (c Candidate) CSV() string {
	r := pipeline.MLRecord{Key: c.Key, ClusterID: c.Cluster, PulseRank: c.PulseRank}
	copy(r.Vec[:], c.Features)
	return r.Format()
}

// Progress is a point-in-time snapshot of a job.
type Progress struct {
	State JobState `json:"state"`
	// Candidates is the number of single pulses emitted so far.
	Candidates int `json:"candidates"`
	// Detections is the number of raw frontend threshold crossings a
	// detect job's search has delivered so far (zero for identification
	// jobs).
	Detections int `json:"detections,omitempty"`
	// RecordsDropped counts malformed key groups the search phase
	// discarded (previously invisible; see rdd.Metrics.RecordsDropped).
	RecordsDropped int64 `json:"records_dropped"`
	// RDDStages and Tasks count executed scheduler work so far.
	RDDStages int `json:"rdd_stages"`
	Tasks     int `json:"tasks"`
	// Stages is the live per-pipeline-stage breakdown (wall seconds,
	// record and byte volumes) accumulated so far — the same map Result
	// carries once the job is terminal. Nil until any stage reports.
	Stages map[string]StageStats `json:"stages,omitempty"`
	// WallSeconds is the measured host compute time accumulated by the
	// job's stages so far.
	WallSeconds float64 `json:"wall_seconds"`
	// SimSeconds is the simulated cluster time; populated once the job
	// succeeds (and only when the engine runs with the simulated clock).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Fleet is the sharding view of a fleet job (DetectJob.Shards > 1):
	// shard completions, in-flight attempts, and worker-loss
	// resubmissions. Nil for unsharded jobs.
	Fleet *FleetProgress `json:"fleet,omitempty"`
	// Error carries the failure or cancellation cause of a terminal,
	// unsuccessful job.
	Error string `json:"error,omitempty"`
}

// Result summarises a completed job.
type Result struct {
	// Records is the number of single pulses identified.
	Records int `json:"records"`
	// Detections is the number of raw threshold crossings the search
	// frontend emitted before clustering (detect jobs only; zero for
	// identification jobs, whose inputs arrive pre-detected).
	Detections int `json:"detections,omitempty"`
	// DetectSeconds is the wall-clock time of the whole detect work
	// function — ingest, search, clustering, identification and sifting —
	// on every detect path (detect jobs only); the Stages walls partition
	// it.
	DetectSeconds float64 `json:"detect_seconds,omitempty"`
	// Plan describes the dedispersion strategy the frontend ran (detect
	// jobs only): "brute", or a subband summary like
	// "subband(nsub=16 nominals=71 smear=0.49samp)" — see DetectJob.Plan
	// and DESIGN.md §6.
	Plan string `json:"plan,omitempty"`
	// RecordsDropped counts malformed key groups discarded by the search.
	RecordsDropped int64 `json:"records_dropped"`
	// SimSeconds and WallSeconds are the two clocks of the distributed
	// identification pipeline (identification jobs only; simulated cluster
	// time is zero unless the engine enables WithSimClock). A detect job's
	// clock is DetectSeconds.
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	// RDDStages and Tasks count executed scheduler work (identification
	// jobs only: detect jobs identify in memory and run no scheduler).
	RDDStages int `json:"rdd_stages"`
	Tasks     int `json:"tasks"`
	// Stages is the per-pipeline-stage breakdown (DESIGN.md §10):
	// ingest, zerodm, dedisperse, normalise, boxcar, cluster, classify,
	// sift — wall seconds plus record/byte volumes. For detect jobs, on
	// every path, the stage walls sum to DetectSeconds. Concurrent kernel
	// stages report their *share* of elapsed time (busy seconds
	// apportioned onto the measured fan-out wall), so the partition holds
	// at any worker count.
	Stages map[string]StageStats `json:"stages,omitempty"`
	// ShuffleBytes and SpillBytes snapshot the engine counters
	// (identification jobs only).
	ShuffleBytes int64 `json:"shuffle_bytes"`
	SpillBytes   int64 `json:"spill_bytes"`
	// OutDir is the engine-filesystem directory holding an identification
	// job's saved ML part files. Detect jobs save nothing there and leave
	// it empty; their candidates are the Results stream.
	OutDir string `json:"out_dir"`
	// TopCandidates is the ranked sifted view of the observation's DBSCAN
	// groups (detect jobs only, unless DetectJob.Sift.Disable), bounded by
	// Sift.Top; Sources are the cross-matched repeat sources behind it.
	// Identical record for record between the batch and streaming paths.
	TopCandidates []TopCandidate `json:"top_candidates,omitempty"`
	Sources       []Source       `json:"sources,omitempty"`
	// Fleet summarises the sharded execution of a fleet job (shard count,
	// fleet width, worker-loss resubmissions); nil for unsharded jobs.
	Fleet *FleetProgress `json:"fleet,omitempty"`
}

// Job is the handle to one submitted identification run. All methods are
// safe for concurrent use; any number of goroutines may consume Results
// independently (each gets the full stream when the job buffers, see
// IdentifyJob.ResultBuffer).
type Job struct {
	id      string
	kind    string // "identify" or "detect" (metrics label, log field)
	ctx     context.Context
	cancel  context.CancelCauseFunc
	rctx    *rdd.Context
	trace   *obs.Trace    // per-job stage breakdown, also on ctx
	metrics *obs.Registry // engine registry (nil-safe)
	log     *slog.Logger
	buffer  int
	done    chan struct{}
	stop    func() bool // releases the cancellation watcher

	mu         sync.Mutex
	cond       *sync.Cond
	state      JobState
	cands      []Candidate
	maxRead    int // furthest consumer position, for backpressure
	detections int // raw frontend events, once a detect job's search ran
	dropWarned bool
	fleet      *FleetProgress
	sift       *jobSift
	result     Result
	err        error
}

// newJob wires a job handle and its cancellation watcher.
func newJob(id string, ctx context.Context, cancel context.CancelCauseFunc, rctx *rdd.Context, buffer int) *Job {
	j := &Job{id: id, ctx: ctx, cancel: cancel, rctx: rctx, buffer: buffer, done: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)
	// Wake blocked stream consumers and emitters the moment the job is
	// cancelled, so Cancel terminates streams promptly.
	j.stop = context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	return j
}

// ID returns the engine-unique job identifier.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job with ErrCancelled as the cause: no new task batches
// start, the candidate stream terminates with the cause, and Wait returns
// it. Cancelling a terminal job is a no-op.
func (j *Job) Cancel() { j.cancel(ErrCancelled) }

// run executes the job's work function and finalises the state machine.
// It is the job's only writer goroutine. Work functions differ by job kind
// — identification runs the distributed batch pipeline, detection the sps
// search frontend with in-memory identification — but share this
// lifecycle.
func (j *Job) run(work func() (Result, error)) {
	defer j.stop()
	start := time.Now()
	j.metrics.Gauge("drapid_jobs_running", "Jobs currently executing.").Add(1)
	j.mu.Lock()
	j.state = JobRunning
	j.cond.Broadcast()
	j.mu.Unlock()

	res, err := work()

	state, cause := JobSucceeded, error(nil)
	switch {
	case err == nil:
		res.Stages = j.trace.Snapshot()
	case j.ctx.Err() != nil:
		state, cause = JobCancelled, context.Cause(j.ctx)
	default:
		state, cause = JobFailed, err
	}
	// Publish terminal metrics before any observer can see the job
	// terminal (Progress, Results, Wait): a /metrics scrape issued the
	// moment one does must already see the job's finished counters and
	// stage histograms.
	j.finalizeObs(state, res.Records, time.Since(start))
	j.mu.Lock()
	j.state, j.err = state, cause
	if state == JobSucceeded {
		j.result = res
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	close(j.done)
}

// finalizeObs publishes the terminal job's counters and stage
// histograms and bridges the rdd engine counters into the registry —
// the previously-invisible drop and recompute totals become scrapeable
// here, and a job that silently discarded records gets its slog.Warn.
func (j *Job) finalizeObs(state JobState, records int, dur time.Duration) {
	m := j.rctx.Metrics()
	reg := j.metrics
	kind := obs.L("kind", j.kind)
	reg.Gauge("drapid_jobs_running", "Jobs currently executing.").Add(-1)
	reg.Counter("drapid_jobs_finished_total", "Terminal jobs, by kind and final state.",
		kind, obs.L("state", state.String())).Inc()
	reg.Histogram("drapid_job_seconds", "End-to-end job wall time in seconds.", nil, kind).Observe(dur.Seconds())
	for stage, st := range j.trace.Snapshot() {
		reg.Histogram("drapid_job_stage_seconds", "Per-job pipeline stage wall time in seconds.",
			nil, obs.L("stage", stage)).Observe(st.WallSeconds)
	}
	reg.Counter("drapid_rdd_tasks_total", "Scheduler tasks executed.").Add(float64(m.Tasks))
	reg.Counter("drapid_rdd_stages_total", "Scheduler stages executed.").Add(float64(m.Stages))
	reg.Counter("drapid_rdd_shuffle_bytes_total", "Bytes shuffled between stages.").Add(float64(m.ShuffleBytes))
	reg.Counter("drapid_rdd_spill_bytes_total", "Bytes spilled to disk.").Add(float64(m.SpillBytes))
	reg.Counter("drapid_rdd_recomputes_total", "Partition recomputations (lineage recovery).").Add(float64(m.Recomputes))
	reg.Counter("drapid_rdd_records_dropped_total", "Malformed records discarded by jobs.").Add(float64(m.RecordsDropped))
	j.warnDrops(m.RecordsDropped)
	j.log.Info("job finished",
		"job", j.id, "kind", j.kind, "state", state.String(),
		"records", records, "seconds", dur.Seconds())
}

// warnDrops logs the first time a job is seen to have dropped records
// (Progress polls hit it mid-run; finalizeObs guarantees it fires at
// least once for any job that dropped).
func (j *Job) warnDrops(dropped int64) {
	if dropped == 0 {
		return
	}
	j.mu.Lock()
	first := !j.dropWarned
	j.dropWarned = true
	j.mu.Unlock()
	if first {
		j.log.Warn("job dropped records", "job", j.id, "kind", j.kind, "dropped", dropped)
	}
}

// pipelineWork adapts the batch identification pipeline into a run work
// function, converting its result to the public shape.
func (j *Job) pipelineWork(cfg pipeline.JobConfig) func() (Result, error) {
	return func() (Result, error) {
		sp := j.trace.Span("classify")
		res, err := pipeline.RunDRAPID(j.rctx, cfg)
		if err != nil {
			sp.End()
			return Result{}, err
		}
		sp.SetRecords(0, int64(res.Records))
		sp.End()
		return Result{
			Records:        res.Records,
			RecordsDropped: res.RecordsDropped,
			SimSeconds:     res.SimSeconds,
			WallSeconds:    res.WallSeconds,
			RDDStages:      res.Metrics.Stages,
			Tasks:          res.Metrics.Tasks,
			ShuffleBytes:   res.Metrics.ShuffleBytes,
			SpillBytes:     res.Metrics.SpillBytes,
			OutDir:         cfg.OutDir,
		}, nil
	}
}

// addDetections accumulates raw frontend events as a detect job's source
// delivers them, so Progress.Detections grows while the observation is
// still being searched.
func (j *Job) addDetections(n int) {
	j.mu.Lock()
	j.detections += n
	j.mu.Unlock()
}

// emit is the pipeline's streaming hook (JobConfig.Emit, and the detect
// segmenter's per-segment output): it appends records to the candidate
// log, honouring the backpressure bound when the job was submitted with
// ResultBuffer > 0. Called concurrently from search workers.
func (j *Job) emit(recs []pipeline.MLRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range recs {
		if j.buffer > 0 {
			for j.ctx.Err() == nil && len(j.cands)-j.maxRead >= j.buffer {
				j.cond.Wait()
			}
		}
		if j.ctx.Err() != nil {
			return // cancelled: drop, the stream is terminating anyway
		}
		vec := make([]float64, len(r.Vec))
		copy(vec, r.Vec[:])
		j.cands = append(j.cands, Candidate{Key: r.Key, Cluster: r.ClusterID, PulseRank: r.PulseRank, Features: vec})
		j.cond.Broadcast()
	}
}

// Results streams the job's candidates as they are identified, in
// completion order (deterministic per key group, arbitrary across key
// groups — sort by CSV for a canonical order). The sequence yields each
// candidate with a nil error and terminates either cleanly (job
// succeeded and the stream is drained) or with exactly one final non-nil
// error: the cancellation cause after Cancel, or the job's failure error.
// Breaking out of the range is always safe.
func (j *Job) Results() iter.Seq2[Candidate, error] {
	return j.ResultsContext(context.Background())
}

// ResultsContext is Results bounded by a consumer-side context: when ctx
// is done the stream terminates promptly with ctx's cause, without
// affecting the job. This is how a server detaches a departed client from
// a still-running job's stream instead of blocking until the next
// candidate.
func (j *Job) ResultsContext(ctx context.Context) iter.Seq2[Candidate, error] {
	if ctx == nil {
		ctx = context.Background()
	}
	return func(yield func(Candidate, error) bool) {
		// Wake our cond waits when the consumer goes away.
		stop := context.AfterFunc(ctx, func() {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
		defer stop()
		i := 0
		for {
			if err := ctx.Err(); err != nil {
				yield(Candidate{}, context.Cause(ctx))
				return
			}
			j.mu.Lock()
			for i >= len(j.cands) && !j.state.Terminal() && j.ctx.Err() == nil && ctx.Err() == nil {
				j.cond.Wait()
			}
			if ctx.Err() != nil {
				j.mu.Unlock()
				yield(Candidate{}, context.Cause(ctx))
				return
			}
			if i < len(j.cands) {
				c := j.cands[i]
				i++
				if i > j.maxRead {
					j.maxRead = i
					j.cond.Broadcast() // free emitters blocked on backpressure
				}
				j.mu.Unlock()
				if !yield(c, nil) {
					return
				}
				continue
			}
			var err error
			if j.state.Terminal() {
				err = j.err
			} else {
				// Cancelled but the driver has not unwound yet: terminate
				// the stream now with the cause rather than waiting.
				err = context.Cause(j.ctx)
			}
			j.mu.Unlock()
			if err != nil {
				yield(Candidate{}, err)
			}
			return
		}
	}
}

// Progress snapshots the job's state and live counters.
func (j *Job) Progress() Progress {
	m := j.rctx.Metrics()
	j.warnDrops(m.RecordsDropped)
	j.mu.Lock()
	defer j.mu.Unlock()
	p := Progress{
		State:          j.state,
		Candidates:     len(j.cands),
		Detections:     j.detections,
		RecordsDropped: m.RecordsDropped,
		RDDStages:      m.Stages,
		Tasks:          m.Tasks,
		Stages:         j.trace.Snapshot(),
		WallSeconds:    m.WallSeconds,
	}
	if j.fleet != nil {
		f := *j.fleet
		p.Fleet = &f
	}
	if j.state == JobSucceeded {
		p.SimSeconds = j.result.SimSeconds
	}
	if j.err != nil {
		p.Error = j.err.Error()
	}
	return p
}

// Wait blocks until the job is terminal (or ctx is done) and returns the
// result. A cancelled or failed job returns its cause as the error.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Result{}, context.Cause(ctx)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}
