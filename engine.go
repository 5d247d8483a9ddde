package drapid

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/hdfs"
	"drapid/internal/obs"
	"drapid/internal/pipeline"
	"drapid/internal/rdd"
	"drapid/internal/yarn"
)

// config collects what the functional options set before New validates it.
type config struct {
	workers      int
	simClock     bool
	executors    int
	partsPerCore int
	fs           *hdfs.FS
	blockSize    int64
	replication  int
	dataNodes    int
	fleetLocal   int
	fleetRemote  []string
	fleetCfg     fleet.Config
	journalFS    bool
	journalDir   string
	metrics      *obs.Registry
	logger       *slog.Logger
}

// Option configures an Engine under construction (drapid.New).
type Option func(*config) error

// WithWorkers sets the host worker-goroutine pool width shared by every
// job on the engine. Zero (the default) means all host cores.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("drapid: workers must be >= 0, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithSimClock turns the calibrated simulated cluster clock on or off.
// Serving engines default to off (only wall-clock metrics); experiments
// that want the paper's Figure 4 accounting turn it on.
func WithSimClock(on bool) Option {
	return func(c *config) error {
		c.simClock = on
		return nil
	}
}

// WithExecutors sizes the simulated Spark cluster in paper-shape executors
// (2 vcores / 2.5 GB each; the testbed supports at most 22).
func WithExecutors(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("drapid: executors must be >= 1, got %d", n)
		}
		c.executors = n
		return nil
	}
}

// WithPartitionsPerCore sets the default hash-partitioner sizing for jobs
// that do not override it (the paper's custom partitioner used 32).
func WithPartitionsPerCore(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("drapid: partitions per core must be >= 1, got %d", n)
		}
		c.partsPerCore = n
		return nil
	}
}

// WithFS supplies the simulated HDFS instance the engine stores job inputs
// and ML output on, for callers that pre-upload files or share a
// filesystem across engines. The default engine creates its own.
func WithFS(fs *hdfs.FS) Option {
	return func(c *config) error {
		if fs == nil {
			return fmt.Errorf("drapid: WithFS requires a non-nil filesystem")
		}
		c.fs = fs
		return nil
	}
}

// WithStorage sizes the engine-owned filesystem (ignored under WithFS):
// block size in bytes, replica count, and data-node count.
func WithStorage(blockSize int64, replication, dataNodes int) Option {
	return func(c *config) error {
		if blockSize <= 0 || replication < 1 || dataNodes < 1 {
			return fmt.Errorf("drapid: invalid storage config (block=%d replication=%d nodes=%d)",
				blockSize, replication, dataNodes)
		}
		c.blockSize, c.replication, c.dataNodes = blockSize, replication, dataNodes
		return nil
	}
}

// Engine is the public façade over the D-RAPID batch pipeline: one engine
// owns a simulated HDFS + YARN platform and a host worker pool, and runs
// any number of identification jobs concurrently on them. Jobs are
// submitted with Submit and observed through their *Job handles; the pool
// is shared fairly across jobs via a token bucket (rdd.ExecConfig.Limiter),
// so J concurrent jobs still execute at most the configured worker count
// of tasks at once. An Engine is safe for concurrent use.
type Engine struct {
	fs           *hdfs.FS
	grants       []yarn.Container
	cost         rdd.CostModel
	exec         rdd.ExecConfig
	partsPerCore int
	coord        *fleet.Coordinator // nil without WithFleetWorkers/WithRemoteWorkers
	journal      fleet.Store        // nil without WithJournal/WithJournalDir
	metrics      *obs.Registry
	log          *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	closed   bool
	draining bool
}

// New builds an engine from functional options. The zero-option engine
// uses all host cores, four paper-shape executors, an 8 MB-block
// 15-data-node filesystem, and no simulated clock.
func New(opts ...Option) (*Engine, error) {
	cfg := config{
		executors:    4,
		partsPerCore: 32,
		blockSize:    8 << 20,
		replication:  3,
		dataNodes:    15,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	fs := cfg.fs
	if fs == nil {
		fs = hdfs.New(hdfs.Config{BlockSize: cfg.blockSize, Replication: cfg.replication}, cfg.dataNodes)
	}
	rm := yarn.NewResourceManager(yarn.PaperCluster())
	if max := rm.MaxContainers(yarn.PaperExecutor()); cfg.executors > max {
		return nil, fmt.Errorf("drapid: cluster supports at most %d paper-shape executors, asked for %d", max, cfg.executors)
	}
	grants, err := rm.Allocate(yarn.PaperExecutor(), cfg.executors)
	if err != nil {
		return nil, fmt.Errorf("drapid: allocating executors: %w", err)
	}
	exec := rdd.ExecConfig{Workers: cfg.workers, SimClock: cfg.simClock}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	metrics := cfg.metrics
	if metrics == nil {
		metrics = obs.Default
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler) // a library is silent unless asked
	}
	cfg.fleetCfg.Metrics = metrics // coordinator gauges land in the engine's registry
	var journal fleet.Store
	switch {
	case cfg.journalDir != "":
		journal, err = fleet.NewDirStore(cfg.journalDir)
		if err != nil {
			return nil, fmt.Errorf("drapid: opening journal directory: %w", err)
		}
	case cfg.journalFS:
		journal = fleet.NewFSStore(fs, "journal/")
	}
	return &Engine{
		fs:           fs,
		grants:       grants,
		cost:         rdd.DefaultCostModel(),
		exec:         exec,
		partsPerCore: cfg.partsPerCore,
		coord:        newFleet(cfg, exec),
		journal:      journal,
		metrics:      metrics,
		log:          logger,
		jobs:         make(map[string]*Job),
	}, nil
}

// IdentifyJob specifies one identification run: the SPE data and cluster
// CSV inputs (Figure 3's two files) plus the knobs a caller may tune. Its
// JSON form is the POST /v1/jobs body; ResultBuffer, which needs an
// in-process Results reader, has none.
type IdentifyJob struct {
	// Data and Clusters are the two CSV inputs as raw lines (headers
	// optional); Submit uploads them to the engine filesystem under the
	// job's directory. They take precedence over DataFile/ClusterFile.
	Data     []string `json:"data"`
	Clusters []string `json:"clusters"`
	// DataFile and ClusterFile name files already present in the engine
	// filesystem (e.g. uploaded once and shared by many jobs).
	DataFile    string `json:"data_file"`
	ClusterFile string `json:"cluster_file"`
	// FreqGHz and BandMHz parameterise the dedispersion-curve fit in
	// feature extraction; zero takes the PALFA-like defaults (1.4, 300).
	FreqGHz float64 `json:"freq_ghz"`
	BandMHz float64 `json:"band_mhz"`
	// PartitionsPerCore overrides the engine default when positive.
	PartitionsPerCore int `json:"partitions_per_core"`
	// ResultBuffer, when positive, paces the producer: once the
	// furthest-ahead Results consumer is that many candidates behind,
	// search workers block on emit until the stream is drained (streaming
	// backpressure coupling search rate to consumption). A backpressured
	// job therefore REQUIRES an active Results consumer — Wait alone never
	// finishes once the bound is hit (Cancel still unblocks it) — and its
	// blocked workers keep holding the engine's shared pool tokens, so
	// co-tenant jobs stall with it: use it on a dedicated engine. The
	// candidate log is retained for replay in both modes; the buffer
	// bounds the consumer lag, not the job's memory.
	ResultBuffer int `json:"-"`
}

// validate checks the spec names a usable pair of inputs.
func (spec IdentifyJob) validate() error {
	if len(spec.Data) == 0 && spec.DataFile == "" {
		return fmt.Errorf("drapid: IdentifyJob needs Data lines or a DataFile")
	}
	if len(spec.Clusters) == 0 && spec.ClusterFile == "" {
		return fmt.Errorf("drapid: IdentifyJob needs Clusters lines or a ClusterFile")
	}
	if spec.ResultBuffer < 0 {
		return fmt.Errorf("drapid: ResultBuffer must be >= 0, got %d", spec.ResultBuffer)
	}
	return nil
}

// Submit registers and starts a job, returning its handle immediately.
// The job runs on the engine's shared worker pool; ctx bounds its
// lifetime (cancelling ctx cancels the job, as does Job.Cancel). Inline
// Data/Clusters are uploaded synchronously so an invalid spec fails here
// rather than asynchronously.
func (e *Engine) Submit(ctx context.Context, spec IdentifyJob) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	id, err := e.allocateID()
	if err != nil {
		return nil, err
	}

	dataFile, clusterFile := spec.DataFile, spec.ClusterFile
	if len(spec.Data) > 0 {
		dataFile = "jobs/" + id + "/spe.csv"
		if _, err := e.fs.WriteLines(dataFile, spec.Data); err != nil {
			return nil, fmt.Errorf("drapid: uploading data: %w", err)
		}
	}
	if len(spec.Clusters) > 0 {
		clusterFile = "jobs/" + id + "/clusters.csv"
		if _, err := e.fs.WriteLines(clusterFile, spec.Clusters); err != nil {
			return nil, fmt.Errorf("drapid: uploading clusters: %w", err)
		}
	}

	freq, band := spec.FreqGHz, spec.BandMHz
	if freq == 0 {
		freq = 1.4
	}
	if band == 0 {
		band = 300
	}
	partsPerCore := e.partsPerCore
	if spec.PartitionsPerCore > 0 {
		partsPerCore = spec.PartitionsPerCore
	}

	j := e.newJobHandle(ctx, id, "identify", spec.ResultBuffer)
	cfg := pipeline.JobConfig{
		DataFile:          dataFile,
		ClusterFile:       clusterFile,
		OutDir:            "jobs/" + id + "/ml",
		PartitionsPerCore: partsPerCore,
		Feat:              features.Config{Grid: dmgrid.Default(), BandMHz: band, FreqGHz: freq},
		Emit:              j.emit,
	}
	if err := e.register(j); err != nil {
		return nil, err
	}
	go j.run(j.pipelineWork(cfg))
	return j, nil
}

// allocateID reserves the next job ID, refusing when the engine is closed
// or draining.
func (e *Engine) allocateID() (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return "", fmt.Errorf("drapid: engine is closed")
	}
	if e.draining {
		return "", ErrDraining
	}
	e.nextID++
	return fmt.Sprintf("job-%d", e.nextID), nil
}

// newJobHandle builds a job handle bound to its own driver context
// (metrics, simulated clock, fresh simulated executors) over the shared
// filesystem; the shared Limiter in e.exec is what makes concurrent jobs
// share the host pool. The per-job obs.Trace rides the job context so
// every layer below — detect driver, sps kernels, fleet shards —
// records into the same stage breakdown (DESIGN.md §10).
func (e *Engine) newJobHandle(ctx context.Context, id, kind string, buffer int) *Job {
	jctx, cancel := context.WithCancelCause(ctx)
	trace := obs.NewTrace()
	jctx = obs.WithTrace(jctx, trace)
	rctx := rdd.NewContext(e.fs, rdd.FromContainers(e.grants), e.cost)
	rctx.Exec = e.exec
	rctx.SetContext(jctx)
	j := newJob(id, jctx, cancel, rctx, buffer)
	j.kind, j.trace, j.metrics, j.log = kind, trace, e.metrics, e.log
	return j
}

// register installs the job in the engine's table, unwinding it (and any
// inputs already uploaded under its directory) when Close raced the
// submission.
func (e *Engine) register(j *Job) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.cancel(fmt.Errorf("drapid: engine is closed"))
		e.removeJobFiles(j.id) // don't leak the just-uploaded inputs
		return fmt.Errorf("drapid: engine is closed")
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.mu.Unlock()
	e.metrics.Counter("drapid_jobs_submitted_total", "Jobs accepted, by kind.",
		obs.L("kind", j.kind)).Inc()
	e.log.Info("job submitted", "job", j.id, "kind", j.kind)
	return nil
}

// Job returns a submitted job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every submitted job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id])
	}
	return out
}

// Remove forgets a terminal job, releasing its candidate log, its handle,
// and its engine-filesystem artifacts (the uploaded inputs and saved ML
// output under jobs/<id>/) — the retention lever a long-lived server
// needs; jobs are otherwise kept for replay until the process exits.
// Files the caller pre-uploaded (IdentifyJob.DataFile/ClusterFile outside
// the job directory) are never touched. Removing a non-terminal job is an
// error; Cancel it first.
func (e *Engine) Remove(id string) error {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("drapid: no such job %q", id)
	}
	if !j.State().Terminal() {
		e.mu.Unlock()
		return fmt.Errorf("drapid: job %q is not terminal", id)
	}
	delete(e.jobs, id)
	for i, oid := range e.order {
		if oid == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	e.removeJobFiles(id)
	return nil
}

// removeJobFiles deletes everything the engine stored under the job's
// filesystem directory.
func (e *Engine) removeJobFiles(id string) {
	prefix := "jobs/" + id + "/"
	for _, name := range e.fs.List() {
		if strings.HasPrefix(name, prefix) {
			_ = e.fs.Delete(name)
		}
	}
}

// Workers reports the effective host worker-pool width jobs share.
func (e *Engine) Workers() int { return e.exec.NumWorkers() }

// FS exposes the engine filesystem so callers can pre-upload shared input
// files (IdentifyJob.DataFile/ClusterFile) or read a job's saved ML
// output directly.
func (e *Engine) FS() *hdfs.FS { return e.fs }

// Close stops accepting submissions and cancels every non-terminal job
// with ErrEngineClosed as the cause. It does not wait for jobs to unwind;
// use Job.Wait for that.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.cancel(ErrEngineClosed)
	}
	if e.coord != nil {
		e.coord.Close()
	}
}
