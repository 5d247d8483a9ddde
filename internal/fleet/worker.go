package fleet

import (
	"context"

	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// Worker is one placement-agnostic member of the fleet: something that can
// answer heartbeats and execute shards. The coordinator never cares where
// a worker runs — in this process (Local), in another process over HTTP
// (Remote), or a test double injecting faults.
//
// Run must be a pure function of the spec: the coordinator resubmits
// failed shards to other workers and merges whichever attempt completes,
// which is only sound because reruns recompute identical events (the
// RDD-lineage recovery contract). Run may deliver events incrementally
// through emit (time-sorted batches); completion is signalled by
// returning. A worker executes one shard at a time.
type Worker interface {
	// Name identifies the worker in status output and errors.
	Name() string
	// Ping is the heartbeat: an error marks the worker suspect, and
	// repeated failures mark it dead (Config.FailLimit).
	Ping(ctx context.Context) error
	// Run executes one shard, delivering events through emit and
	// returning the search stats of the attempt.
	Run(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error)
}

// Local is an in-process worker: shards execute on this process's cores
// under the given rdd executor (sharing its token-bucket limiter with
// whatever else runs on it). It is the worker of tests, benchmarks and
// single-host fleets. Every Local in the process shares one staging slot
// (DESIGN.md §9.1): the channel-major staging of the last observation a
// Local searched, reused by any Local's next shard of the same blob and
// zero-DM setting. So at rest all of a process's Locals together hold at
// most one staging, 4 × nsamples × nchans bytes.
type Local struct {
	name string
	exec rdd.ExecConfig
	slot *stagingSlot
}

// NewLocal builds an in-process worker executing shards on exec.
func NewLocal(name string, exec rdd.ExecConfig) *Local {
	return &Local{name: name, exec: exec, slot: localSlot()}
}

// Name implements Worker.
func (l *Local) Name() string { return l.name }

// Ping implements Worker; an in-process worker is alive by definition.
func (l *Local) Ping(ctx context.Context) error { return ctx.Err() }

// Run implements Worker over RunShard's core and the process's shared
// staging slot.
func (l *Local) Run(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	return runShard(ctx, spec, l.exec, l.slot, emit)
}
