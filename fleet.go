package drapid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"drapid/internal/fleet"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// This file is the public face of the scale-out layer (DESIGN.md §9):
// engine options that attach a worker fleet and a job journal, the
// DetectJob sharding knobs, the fleet work function that routes a sharded
// detect job through the coordinator, and the recovery/drain lifecycle a
// daemon builds graceful restart on.

// ErrDraining is what Submit and SubmitDetect return once Drain has been
// called: the engine finishes what it has but accepts nothing new.
var ErrDraining = errors.New("drapid: engine is draining")

// ShardByDM is DetectJob.ShardBy's one axis, and its default: the
// trial-DM grid is split across shards. Every shard carries the whole
// observation and the full grid plus a trial sub-range, so the merged
// candidate stream is record-for-record identical to an unsharded run.
const ShardByDM = "dm"

// WithFleetWorkers attaches n in-process fleet workers to the engine,
// enabling sharded detect jobs (DetectJob.Shards > 1). Local workers
// execute on the engine's shared host pool under the same limiter, so a
// wide fleet still runs at most the configured worker count of tasks at
// once — fleet width controls shard-level parallelism and fault
// granularity, not host oversubscription.
func WithFleetWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("drapid: fleet workers must be >= 1, got %d", n)
		}
		c.fleetLocal = n
		return nil
	}
}

// WithRemoteWorkers attaches remote fleet workers by base URL — one
// `drapidd -worker` process each (e.g. "http://host:8417"). Remote and
// local workers mix freely in one fleet.
func WithRemoteWorkers(urls ...string) Option {
	return func(c *config) error {
		for _, u := range urls {
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return fmt.Errorf("drapid: remote worker %q is not an http(s) URL", u)
			}
		}
		c.fleetRemote = append(c.fleetRemote, urls...)
		return nil
	}
}

// WithFleetTuning overrides the fleet failure-detection knobs: the
// heartbeat ping interval, the consecutive ping failures that mark a
// worker dead, and the per-shard dispatch bound. Zero keeps each default
// (1s, 2, 4). Tests tighten these to fail fast; production fleets on
// flaky networks loosen them.
func WithFleetTuning(heartbeat time.Duration, failLimit, maxAttempts int) Option {
	return func(c *config) error {
		if heartbeat < 0 || failLimit < 0 || maxAttempts < 0 {
			return fmt.Errorf("drapid: fleet tuning values must be >= 0")
		}
		c.fleetCfg = fleet.Config{Heartbeat: heartbeat, FailLimit: failLimit, MaxAttempts: maxAttempts}
		return nil
	}
}

// WithJournal turns on the job journal in the engine filesystem: every
// journal-able detect job (anything but a FilterbankStream job, whose
// input cannot be replayed) is persisted at submission and erased when it
// ends in any way except engine shutdown — so after a crash or Close, a
// new engine sharing the same filesystem (WithFS) replays the interrupted
// jobs with Recover.
func WithJournal() Option {
	return func(c *config) error {
		c.journalFS = true
		return nil
	}
}

// WithJournalDir is WithJournal persisted to a real directory on disk —
// what `drapidd -journal` uses, surviving process restarts.
func WithJournalDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("drapid: WithJournalDir requires a directory")
		}
		c.journalDir = dir
		return nil
	}
}

// FleetProgress is the sharding view of one fleet job, embedded in
// Progress and Result.
type FleetProgress struct {
	// Workers is the fleet width the job was dispatched over.
	Workers int `json:"workers"`
	// Shards is the number of shards the job was split into.
	Shards int `json:"shards"`
	// Done and Running count shard completions and in-flight attempts.
	Done    int `json:"done"`
	Running int `json:"running,omitempty"`
	// Resubmitted counts shard attempts lost to worker failure and
	// recomputed elsewhere (the RDD-lineage recovery counter).
	Resubmitted int `json:"resubmitted"`
}

// FleetStatus is the engine-wide fleet snapshot (the daemon's /readyz
// payload).
type FleetStatus struct {
	// Enabled reports whether the engine has a fleet at all.
	Enabled bool `json:"enabled"`
	// Draining reports whether Drain has been called.
	Draining bool `json:"draining"`
	// WorkersKnown and WorkersAlive count configured and heartbeat-alive
	// workers.
	WorkersKnown int `json:"workers_known"`
	WorkersAlive int `json:"workers_alive"`
	// ShardsQueued, ShardsRunning and ShardsResubmitted aggregate shard
	// state over every running fleet job.
	ShardsQueued      int `json:"shards_queued"`
	ShardsRunning     int `json:"shards_running"`
	ShardsResubmitted int `json:"shards_resubmitted"`
	// JournaledJobs counts journal entries currently persisted.
	JournaledJobs int `json:"journaled_jobs,omitempty"`
}

// FleetStatus snapshots the engine's fleet and journal state. On an
// engine with no fleet only Enabled=false, Draining and JournaledJobs are
// meaningful.
func (e *Engine) FleetStatus() FleetStatus {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	s := FleetStatus{Draining: draining}
	if e.coord != nil {
		cs := e.coord.Status()
		s.Enabled = true
		s.WorkersKnown = cs.WorkersKnown
		s.WorkersAlive = cs.WorkersAlive
		s.ShardsQueued = cs.ShardsQueued
		s.ShardsRunning = cs.ShardsRunning
		s.ShardsResubmitted = cs.ShardsResubmitted
	}
	if e.journal != nil {
		if names, err := e.journal.List(); err == nil {
			s.JournaledJobs = len(names)
		}
	}
	return s
}

// Drain stops the engine accepting new jobs (submissions return
// ErrDraining) and waits for every in-flight job to reach a terminal
// state, or for ctx. Jobs are not cancelled — a deadline-bound caller
// that wants to give up cancels them itself after Drain returns ctx's
// error. Draining is one-way; it is the first half of a graceful
// shutdown (the daemon's SIGTERM path), with Close as the second.
func (e *Engine) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	e.draining = true
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	return nil
}

// setFleet installs the job's fleet view once shard planning is done,
// making Progress.Fleet non-nil for the rest of the job's life.
func (j *Job) setFleet(f FleetProgress) {
	j.mu.Lock()
	j.fleet = &f
	j.mu.Unlock()
}

// updateFleet folds a coordinator progress callback into the job's fleet
// view.
func (j *Job) updateFleet(s fleet.JobStatus) {
	j.mu.Lock()
	if j.fleet != nil {
		j.fleet.Done = s.Done
		j.fleet.Running = s.Running
		j.fleet.Resubmitted = s.Resubmitted
	}
	j.mu.Unlock()
}

// journalEntry is one persisted job: its identity and a replayable spec,
// in DetectJob's own JSON form.
type journalEntry struct {
	ID   string    `json:"id"`
	Spec DetectJob `json:"spec"`
}

// readJournalEntry parses one persisted job. Entries written before
// DetectJob carried its own JSON names spell NoZeroDM "no_zero_dm": that
// one-way alias is read here and never written. Their result_buffer has
// no DetectJob name and is ignored, since a replayed job has no Results
// reader to pace. Entries written while the fleet also sharded by time
// may hold ShardBy "time": they replay on the DM axis, whose output is
// the exact one time sharding approximated.
func readJournalEntry(data []byte) (journalEntry, error) {
	var ent journalEntry
	var legacy struct {
		Spec struct {
			NoZeroDM bool `json:"no_zero_dm"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(data, &ent); err != nil {
		return ent, err
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return ent, err
	}
	ent.Spec.NoZeroDM = ent.Spec.NoZeroDM || legacy.Spec.NoZeroDM
	if ent.Spec.ShardBy == "time" {
		ent.Spec.ShardBy = ShardByDM
	}
	return ent, nil
}

// journalable reports whether the spec can be replayed from persisted
// bytes (a live stream cannot).
func (spec DetectJob) journalable() bool { return spec.FilterbankStream == nil }

// journalPut persists a just-submitted job and arranges the erase: the
// entry outlives the job only when the engine shut down under it
// (ErrEngineClosed), which is exactly the set Recover replays.
func (e *Engine) journalPut(j *Job, spec DetectJob) error {
	data, err := json.Marshal(journalEntry{ID: j.id, Spec: spec})
	if err != nil {
		return fmt.Errorf("drapid: journalling job: %w", err)
	}
	if err := e.journal.Put(j.id, data); err != nil {
		return fmt.Errorf("drapid: journalling job: %w", err)
	}
	go func() {
		<-j.Done()
		if _, err := j.Wait(context.Background()); errors.Is(err, ErrEngineClosed) {
			return // crash/shutdown semantics: keep the entry for Recover
		}
		_ = e.journal.Delete(j.id)
	}()
	return nil
}

// Recover replays the journal: every entry — jobs that were queued or
// running when the previous engine died — is resubmitted under its
// original job ID. Call it once, after New and before accepting traffic;
// the returned handles are also reachable through Job/Jobs as usual.
func (e *Engine) Recover(ctx context.Context) ([]*Job, error) {
	if e.journal == nil {
		return nil, nil
	}
	names, err := e.journal.List()
	if err != nil {
		return nil, fmt.Errorf("drapid: reading journal: %w", err)
	}
	var jobs []*Job
	for _, name := range names {
		data, err := e.journal.Get(name)
		if err != nil {
			return jobs, fmt.Errorf("drapid: reading journal entry %q: %w", name, err)
		}
		ent, err := readJournalEntry(data)
		if err != nil {
			return jobs, fmt.Errorf("drapid: parsing journal entry %q: %w", name, err)
		}
		j, err := e.submitDetect(ctx, ent.Spec, ent.ID)
		if err != nil {
			return jobs, fmt.Errorf("drapid: replaying job %q: %w", ent.ID, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// claimID reserves a specific job ID (journal replay), keeping the
// allocator ahead of it so fresh submissions never collide.
func (e *Engine) claimID(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("drapid: engine is closed")
	}
	if _, ok := e.jobs[id]; ok {
		return fmt.Errorf("drapid: job %q already exists", id)
	}
	if rest, ok := strings.CutPrefix(id, "job-"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > e.nextID {
			e.nextID = n
		}
	}
	return nil
}

// fleetSource is the sharded event source: plan DM shards and run them
// across the coordinator's fleet, so the merged events — and the candidate
// and sifted records the driver builds from them — are record-for-record
// what a single-engine run produces (the fleet merge contract, DESIGN.md
// §9). The shards merge at a barrier, so every event arrives at once and
// one segment keeps observation-global features (ClusterRank)
// bit-identical to the unsharded run.
func (e *Engine) fleetSource(j *Job, spec DetectJob, setup *detectSetup) (*eventSource, error) {
	ingest := j.trace.Span(sps.StageIngest)
	raw := spec.Filterbank
	if spec.Synth != nil {
		var err error
		raw, err = GenerateFilterbank(*spec.Synth)
		if err != nil {
			ingest.End()
			return nil, fmt.Errorf("drapid: generating observation: %w", err)
		}
	}
	// The header is all the coordinator decodes: every shard carries the bytes.
	hdr, _, err := sps.ParseRaw(raw)
	if err != nil {
		ingest.End()
		return nil, fmt.Errorf("drapid: reading filterbank: %w", err)
	}
	ingest.SetRecords(0, int64(hdr.NSamples))
	ingest.AddBytes(int64(len(raw)))
	ingest.End()
	shards := fleet.PlanDM(j.id, raw, setup.grid.Trials(), setup.search, spec.Shards)
	j.setFleet(FleetProgress{Workers: e.coord.Workers(), Shards: len(shards)})
	src := &eventSource{hdr: hdr, single: true}
	src.run = func(emit func([]spe.SPE) error) (sps.Stats, error) {
		stats, status, err := e.coord.Run(j.ctx, shards, emit, fleet.RunOptions{
			OnProgress: func(s fleet.JobStatus) { j.updateFleet(s) },
		})
		src.fleet = &FleetProgress{
			Workers:     e.coord.Workers(),
			Shards:      status.Shards,
			Done:        status.Done,
			Resubmitted: status.Resubmitted,
		}
		return stats, err
	}
	return src, nil
}

// newFleet builds the engine's coordinator from the configured local and
// remote workers (nil when the engine has no fleet).
func newFleet(cfg config, exec rdd.ExecConfig) *fleet.Coordinator {
	var workers []fleet.Worker
	for i := 0; i < cfg.fleetLocal; i++ {
		workers = append(workers, fleet.NewLocal(fmt.Sprintf("local-%d", i), exec))
	}
	for i, u := range cfg.fleetRemote {
		// Remote wire counters land in the engine registry, so the
		// coordinator's /metrics shows bytes on the wire per worker.
		workers = append(workers, fleet.NewRemote(fmt.Sprintf("remote-%d", i), u, nil,
			fleet.WithWireMetrics(cfg.fleetCfg.Metrics)))
	}
	if len(workers) == 0 {
		return nil
	}
	return fleet.NewCoordinator(cfg.fleetCfg, workers...)
}
