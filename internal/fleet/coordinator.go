package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"drapid/internal/obs"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// Config tunes the coordinator's failure detection and recovery.
type Config struct {
	// Heartbeat is the ping interval of the worker monitor (default 1s).
	Heartbeat time.Duration
	// PingTimeout bounds one ping (default: Heartbeat).
	PingTimeout time.Duration
	// FailLimit is how many consecutive ping failures mark a worker dead
	// (default 2). A dead worker keeps being pinged and revives on the
	// next success — transient network partitions heal themselves.
	FailLimit int
	// MaxAttempts bounds dispatches per shard, counting the first
	// (default 4): a shard failing that many times — worker deaths and
	// shard errors both count — fails its job.
	MaxAttempts int
	// Metrics receives the coordinator's fleet gauges and counters; nil
	// records nothing. The gauges are scrape-time callbacks over the
	// exact fields Status() reports, so /metrics and /readyz can never
	// disagree.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.Heartbeat
	}
	if c.FailLimit <= 0 {
		c.FailLimit = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	return c
}

// Status is the coordinator-wide fleet snapshot (the /readyz payload):
// worker liveness plus shard gauges aggregated over every running job.
type Status struct {
	WorkersKnown      int `json:"workers_known"`
	WorkersAlive      int `json:"workers_alive"`
	ShardsQueued      int `json:"shards_queued"`
	ShardsRunning     int `json:"shards_running"`
	ShardsResubmitted int `json:"shards_resubmitted"`
}

// JobStatus is one job's shard progress.
type JobStatus struct {
	Shards      int `json:"shards"`
	Done        int `json:"done"`
	Running     int `json:"running"`
	Resubmitted int `json:"resubmitted"`
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	w        Worker
	alive    bool
	busy     bool
	fails    int
	lastPing time.Time          // last successful heartbeat (construction time until one lands)
	cancel   context.CancelFunc // cancels the in-flight shard, if any
}

// Coordinator owns a fleet of workers and runs sharded jobs over them:
// dispatch, heartbeat-based loss detection, bounded resubmission, and the
// ordered merge of per-shard event streams. One coordinator serves any
// number of concurrent jobs; workers are shared across them (a worker
// runs one shard at a time, whichever job it belongs to). All methods are
// safe for concurrent use.
type Coordinator struct {
	cfg     Config
	metrics *obs.Registry // from cfg.Metrics; nil-safe

	mu          sync.Mutex
	cond        *sync.Cond
	workers     []*workerState
	queued      int
	running     int
	resubmitted int
	closed      bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator over the given workers and starts
// its heartbeat monitor. Close releases it.
func NewCoordinator(cfg Config, workers ...Worker) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults(), metrics: cfg.Metrics, stop: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	now := time.Now()
	for _, w := range workers {
		c.workers = append(c.workers, &workerState{w: w, alive: true, lastPing: now})
	}
	c.registerGauges()
	c.wg.Add(1)
	go c.monitor()
	return c
}

// registerGauges exports the fleet state as scrape-time callbacks. Every
// callback reads the same mutex-guarded fields Status() snapshots —
// there is one source of truth, observed from two doors.
func (c *Coordinator) registerGauges() {
	if c.metrics == nil {
		return
	}
	c.metrics.GaugeFunc("drapid_fleet_workers_known", "Workers configured in the fleet.",
		func() float64 { return float64(c.Status().WorkersKnown) })
	c.metrics.GaugeFunc("drapid_fleet_workers_alive", "Workers currently passing heartbeats.",
		func() float64 { return float64(c.Status().WorkersAlive) })
	c.metrics.GaugeFunc("drapid_fleet_shards_queued", "Shards waiting for a worker, over all running jobs.",
		func() float64 { return float64(c.Status().ShardsQueued) })
	c.metrics.GaugeFunc("drapid_fleet_shards_running", "Shard attempts in flight, over all running jobs.",
		func() float64 { return float64(c.Status().ShardsRunning) })
	// Called from NewCoordinator before the coordinator escapes, so
	// c.workers is still private — and c.mu must NOT be held here: the
	// callbacks take it at scrape time, and registration takes registry
	// locks, so holding c.mu across GaugeFunc would invert the lock order
	// against a concurrent scrape.
	for _, ws := range c.workers {
		ws := ws
		name := obs.L("worker", ws.w.Name())
		c.metrics.GaugeFunc("drapid_fleet_worker_alive", "1 while the worker passes heartbeats, 0 while marked dead.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if ws.alive {
					return 1
				}
				return 0
			}, name)
		c.metrics.GaugeFunc("drapid_fleet_worker_inflight", "Shard attempts in flight on the worker (0 or 1).",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if ws.busy {
					return 1
				}
				return 0
			}, name)
		c.metrics.GaugeFunc("drapid_fleet_worker_ping_failures", "Consecutive heartbeat failures (FailLimit marks the worker dead).",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(ws.fails)
			}, name)
		c.metrics.GaugeFunc("drapid_fleet_worker_heartbeat_age_seconds", "Seconds since the worker's last successful heartbeat.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return time.Since(ws.lastPing).Seconds()
			}, name)
	}
}

// Close stops the heartbeat monitor and wakes any waiters with an error.
// Jobs still running fail on their next dispatch.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

// Workers reports the fleet width.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Status snapshots the fleet.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		WorkersKnown:      len(c.workers),
		ShardsQueued:      c.queued,
		ShardsRunning:     c.running,
		ShardsResubmitted: c.resubmitted,
	}
	for _, ws := range c.workers {
		if ws.alive {
			s.WorkersAlive++
		}
	}
	return s
}

// monitor is the heartbeat loop: every Heartbeat it pings each worker
// concurrently, marking workers dead after FailLimit consecutive
// failures (cancelling whatever shard they were running, which requeues
// it) and reviving them on success.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		states := make([]*workerState, len(c.workers))
		copy(states, c.workers)
		c.mu.Unlock()
		var wg sync.WaitGroup
		for _, ws := range states {
			wg.Add(1)
			go func(ws *workerState) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PingTimeout)
				err := ws.w.Ping(ctx)
				cancel()
				c.mu.Lock()
				defer c.mu.Unlock()
				if err == nil {
					ws.fails = 0
					ws.lastPing = time.Now()
					if !ws.alive {
						ws.alive = true
						c.cond.Broadcast() // revived: wake acquirers
					}
					return
				}
				ws.fails++
				if ws.fails >= c.cfg.FailLimit && ws.alive {
					ws.alive = false
					if ws.cancel != nil {
						ws.cancel() // in-flight shard aborts and requeues
					}
				}
			}(ws)
		}
		wg.Wait()
	}
}

// markDead records a worker whose shard RPC failed: suspect immediately,
// revived by the next successful heartbeat.
func (c *Coordinator) markDead(ws *workerState) {
	c.mu.Lock()
	ws.alive = false
	ws.fails = c.cfg.FailLimit
	c.mu.Unlock()
}

// acquire blocks until an alive idle worker is available (or ctx is done
// or the coordinator closes) and claims it. It takes avoid, the worker a
// retried shard last failed on, only when no other worker is idle.
func (c *Coordinator) acquire(ctx context.Context, avoid *workerState) (*workerState, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, fmt.Errorf("fleet: coordinator closed")
		}
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		if len(c.workers) == 0 {
			return nil, fmt.Errorf("fleet: no workers")
		}
		for _, ws := range c.workers {
			if ws.alive && !ws.busy && ws != avoid {
				ws.busy = true
				return ws, nil
			}
		}
		if avoid != nil && avoid.alive && !avoid.busy {
			avoid.busy = true
			return avoid, nil
		}
		// Every worker busy or dead: wait for a release, a revival, or
		// cancellation. A fleet that is entirely dead parks here until the
		// monitor revives someone or the job's context gives up — the
		// job's deadline, not the coordinator, decides how long to hope.
		c.cond.Wait()
	}
}

// release returns a worker to the pool.
func (c *Coordinator) release(ws *workerState) {
	c.mu.Lock()
	ws.busy = false
	ws.cancel = nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// dispatchBuckets ladder the dispatch-latency histogram: queue waits run
// from sub-millisecond (idle fleet) to many seconds (every worker busy,
// or a requeued shard waiting out a heartbeat interval).
var dispatchBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// runJob is the per-job merge and bookkeeping state.
type runJob struct {
	mu        sync.Mutex
	shards    []ShardSpec
	results   [][]spe.SPE // successful attempt's events, per shard
	stats     []sps.Stats
	done      []bool
	attempts  []int
	queuedAt  []time.Time // when the shard last entered the todo queue
	doneCount int
	running   int
	resub     int
	// lastWorker is the worker of the shard's last failed attempt, which
	// its retry avoids while another worker is idle.
	lastWorker []*workerState
	failed     error
}

// RunOptions configure one sharded run.
type RunOptions struct {
	// OnProgress, when non-nil, observes every shard state change.
	OnProgress func(JobStatus)
}

// Run executes a sharded job: dispatches every shard across the fleet,
// resubmits shards lost to worker failure (bounded by MaxAttempts), and
// once every shard is done delivers the merged events to emit exactly as
// a single-engine search over the same job would have (see the package
// comment for the exactness contract). Returns the folded search stats
// and the final shard status.
func (c *Coordinator) Run(ctx context.Context, shards []ShardSpec, emit func([]spe.SPE) error, opts RunOptions) (sps.Stats, JobStatus, error) {
	if len(shards) == 0 {
		return sps.Stats{}, JobStatus{}, fmt.Errorf("fleet: no shards")
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	j := &runJob{
		shards:     shards,
		results:    make([][]spe.SPE, len(shards)),
		stats:      make([]sps.Stats, len(shards)),
		done:       make([]bool, len(shards)),
		attempts:   make([]int, len(shards)),
		queuedAt:   make([]time.Time, len(shards)),
		lastWorker: make([]*workerState, len(shards)),
	}
	todo := make(chan int, len(shards)*c.cfg.MaxAttempts)
	now := time.Now()
	for i := range shards {
		j.queuedAt[i] = now
		todo <- i
	}
	c.addQueued(len(shards))

	var wg sync.WaitGroup
	finished := make(chan struct{})
	var finishOnce sync.Once
	maybeFinish := func() {
		j.mu.Lock()
		doneAll := j.doneCount == len(shards) || j.failed != nil
		j.mu.Unlock()
		if doneAll {
			finishOnce.Do(func() { close(finished) })
		}
	}

dispatch:
	for {
		select {
		case <-finished:
			break dispatch
		case <-runCtx.Done():
			break dispatch
		case i := <-todo:
			j.mu.Lock()
			avoid := j.lastWorker[i]
			j.mu.Unlock()
			ws, err := c.acquire(runCtx, avoid)
			if err != nil {
				c.addQueued(-1)
				j.mu.Lock()
				if j.failed == nil {
					j.failed = err
				}
				j.mu.Unlock()
				cancel(err)
				break dispatch
			}
			c.addQueued(-1)
			wg.Add(1)
			go func(i int, ws *workerState) {
				defer wg.Done()
				c.runShard(runCtx, cancel, j, i, ws, todo, opts)
				maybeFinish()
			}(i, ws)
		}
	}
	wg.Wait()

	j.mu.Lock()
	defer j.mu.Unlock()
	status := JobStatus{Shards: len(shards), Done: j.doneCount, Resubmitted: j.resub}
	if j.failed == nil && runCtx.Err() != nil {
		j.failed = context.Cause(runCtx)
	}
	if j.failed != nil {
		return sps.Stats{}, status, j.failed
	}
	var stats sps.Stats
	for i := range shards {
		stats.Trials += j.stats[i].Trials
		stats.Samples += j.stats[i].Samples
		stats.Events += j.stats[i].Events
		if stats.Plan == "" {
			stats.Plan = j.stats[i].Plan
		}
		// Stage busy-seconds fold additively across shards: the merged map
		// is the job's total worker-side time per stage, which the engine
		// apportions onto the coordinator's measured wall.
		for name, secs := range j.stats[i].StageSeconds {
			if stats.StageSeconds == nil {
				stats.StageSeconds = make(map[string]float64)
			}
			stats.StageSeconds[name] += secs
		}
	}
	// Barrier merge: fold shard outputs in shard order and canonically sort
	// — byte-identical to the single-engine fold (shards are disjoint trial
	// ranges, and SortByTime is a total order).
	var all []spe.SPE
	for _, evs := range j.results {
		all = append(all, evs...)
	}
	spe.SortByTime(all)
	if len(all) > 0 && emit != nil {
		if err := emit(all); err != nil {
			return stats, status, err
		}
	}
	return stats, status, nil
}

// runShard executes one dispatched shard attempt on a claimed worker and
// routes its outcome: success folds into the merge, failure requeues or
// fails the job.
func (c *Coordinator) runShard(runCtx context.Context, cancelRun context.CancelCauseFunc, j *runJob,
	i int, ws *workerState, todo chan<- int, opts RunOptions) {
	shardCtx, cancelShard := context.WithCancel(runCtx)
	defer cancelShard()
	c.mu.Lock()
	ws.cancel = cancelShard
	c.mu.Unlock()

	j.mu.Lock()
	j.attempts[i]++
	j.running++
	spec := j.shards[i]
	spec.Attempt = j.attempts[i]
	queuedAt := j.queuedAt[i]
	j.mu.Unlock()
	c.addRunning(1)
	c.metrics.Counter("drapid_fleet_shard_attempts_total", "Shard dispatches, first attempts and resubmissions alike.",
		obs.L("worker", ws.w.Name())).Inc()
	c.metrics.Histogram("drapid_fleet_dispatch_seconds",
		"Queue-to-dispatch latency of shard attempts: time from entering the todo queue to landing on a worker.",
		dispatchBuckets, obs.L("worker", ws.w.Name())).Observe(time.Since(queuedAt).Seconds())
	c.progress(j, opts)

	var buf []spe.SPE
	stats, err := ws.w.Run(shardCtx, spec, func(events []spe.SPE) error {
		buf = append(buf, events...)
		return shardCtx.Err()
	})

	c.addRunning(-1)
	switch {
	case err == nil:
		c.release(ws)
		c.metrics.Counter("drapid_fleet_shards_done_total", "Shard attempts completed successfully.").Inc()
		j.mu.Lock()
		j.running--
		if !j.done[i] {
			j.done[i] = true
			j.doneCount++
			j.results[i] = buf
			j.stats[i] = stats
		}
		j.mu.Unlock()
		c.progress(j, opts)
	case runCtx.Err() != nil:
		// The job is being torn down (failure elsewhere, or caller
		// cancellation): don't requeue, don't blame the worker.
		c.release(ws)
		j.mu.Lock()
		j.running--
		j.mu.Unlock()
	default:
		// The attempt failed — shard error, or the heartbeat monitor
		// cancelled a dead worker's context. Blame the worker (the next
		// heartbeat revives a healthy one), unless it only refused this
		// request, and recompute the shard elsewhere, within the attempt
		// bound.
		if !errors.As(err, new(refusedError)) {
			c.markDead(ws)
		}
		c.release(ws)
		j.mu.Lock()
		j.running--
		j.resub++
		j.lastWorker[i] = ws
		attempts := j.attempts[i]
		fail := attempts >= c.cfg.MaxAttempts
		if fail && j.failed == nil {
			j.failed = fmt.Errorf("fleet: shard %s/%d failed after %d attempts (last worker %s): %w",
				spec.Job, spec.Index, attempts, ws.w.Name(), err)
		}
		j.mu.Unlock()
		c.mu.Lock()
		c.resubmitted++
		c.mu.Unlock()
		c.metrics.Counter("drapid_fleet_shards_resubmitted_total", "Shard attempts lost to worker failure and requeued.",
			obs.L("worker", ws.w.Name())).Inc()
		if fail {
			cancelRun(j.failed)
		} else {
			j.mu.Lock()
			j.queuedAt[i] = time.Now()
			j.mu.Unlock()
			c.addQueued(1)
			todo <- i
		}
		c.progress(j, opts)
	}
}

// progress reports a job snapshot to the observer, outside any lock the
// observer could re-enter.
func (c *Coordinator) progress(j *runJob, opts RunOptions) {
	if opts.OnProgress == nil {
		return
	}
	j.mu.Lock()
	s := JobStatus{Shards: len(j.shards), Done: j.doneCount, Running: j.running, Resubmitted: j.resub}
	j.mu.Unlock()
	opts.OnProgress(s)
}

func (c *Coordinator) addQueued(d int) {
	c.mu.Lock()
	c.queued += d
	c.mu.Unlock()
}

func (c *Coordinator) addRunning(d int) {
	c.mu.Lock()
	c.running += d
	c.mu.Unlock()
}
