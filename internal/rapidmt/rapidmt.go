// Package rapidmt is the multithreaded single-machine baseline of RQ 2
// (the paper's RAPID-MT, §5.1.2): the same single-pulse search D-RAPID
// distributes, run on one workstation. It is a thin configuration of the
// same concurrent executor the distributed engine uses — rdd.RunParallel
// with Workers set to the requested thread count — executing the identical
// per-key code path (pipeline.ProcessKeyGroup), so its outputs can be
// compared record-for-record against the distributed job. Alongside the
// real execution, elapsed time is also *simulated* with a single-machine
// cost model — one shared disk, a fixed physical core count that caps
// useful parallelism, and no cluster memory to spill into — which is what
// the Figure 4 thread sweep plots.
package rapidmt

import (
	"context"
	"time"

	"drapid/internal/core"
	"drapid/internal/des"
	"drapid/internal/features"
	"drapid/internal/pipeline"
	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// Machine models the baseline workstation.
type Machine struct {
	// Cores is the physical core count; threads beyond it contend.
	Cores int
	// HTBoost is the extra throughput hyper-threading buys when the
	// thread count exceeds Cores (1.0 = none).
	HTBoost float64
	// CPUFactor scales per-unit compute cost relative to the cluster
	// nodes the rdd cost model is calibrated to (>1 = faster CPU).
	CPUFactor float64
	// MemBWCores caps the *useful* parallelism of this scan-heavy
	// workload on a single-socket desktop: every worker streams SPE data
	// through one memory controller, so throughput ceilings well below
	// the core count (the cluster's executors each bring their own
	// memory, which is the structural advantage RQ 2 measures). Zero
	// disables the ceiling.
	MemBWCores float64
	// DiskMBps is the single local disk all threads share.
	DiskMBps float64
	// MemMB is installed memory; the 10.2 GB test set fits in the paper's
	// 16 GB workstation, so no spill modelling is needed here.
	MemMB int
	// ThreadOverheadSec charges context-switch/queue overhead per task.
	ThreadOverheadSec float64
}

// PaperWorkstation reproduces the paper's baseline host: an i7-7800K
// (6 cores / 12 threads) overclocked to 4.5 GHz with 16 GB of RAM — a
// substantially faster single CPU than any cluster node, but a single
// memory domain.
func PaperWorkstation() Machine {
	return Machine{
		Cores:             6,
		HTBoost:           1.25,
		CPUFactor:         1.5,
		MemBWCores:        2.0,
		DiskMBps:          130,
		MemMB:             16384,
		ThreadOverheadSec: 0.0002,
	}
}

// Result summarises one run.
type Result struct {
	// SimSeconds is the simulated elapsed time.
	SimSeconds float64
	// WallSeconds is the measured host wall-clock time of the search phase.
	WallSeconds float64
	// Records is the number of ML records produced.
	Records int
	// ML holds the produced records (same format as the distributed job).
	ML []pipeline.MLRecord
}

// Run executes the multithreaded RAPID search over the raw data and
// cluster file lines with the requested thread count: one executor-pool
// work item per observation key, really running threads-wide
// (rdd.RunParallel). CPU cost constants are shared with the distributed
// cost model so the two implementations are priced consistently, and the
// ML output is deterministic — identical for any thread count.
func Run(dataLines, clusterLines []string, threads int, m Machine, cost rdd.CostModel, params core.Params, feat features.Config) (Result, error) {
	if threads < 1 {
		threads = 1
	}
	if params.Weight == 0 {
		params = core.DefaultParams()
	}

	// Group both inputs by observation key (the single-machine program
	// reads everything into memory up front).
	groups := pipeline.GroupByKey(dataLines, clusterLines)
	var dataBytes int64
	for _, lines := range [][]string{dataLines, clusterLines} {
		for _, line := range lines {
			dataBytes += int64(len(line)) + 1
		}
	}

	// Real execution: the same executor pool as the distributed job, one
	// work item per observation key, threads goroutines wide. Each item
	// parses its observation once and records per-cluster search volumes so
	// the simulated task pool can schedule at cluster granularity (the unit
	// the multithreaded program parallelizes over). Per-key results land in
	// key-indexed slots and are folded back in key order, so the output is
	// identical to a serial run.
	var result Result
	type keyWork struct {
		recs        []pipeline.MLRecord
		parsed      int64
		clusterSPEs []int
		err         error
	}
	work := make([]keyWork, len(groups))
	wallStart := time.Now()
	// A parse error cancels the pool so remaining keys are not searched
	// (fail-fast, as the serial loop did); in-flight items finish.
	gctx, abort := context.WithCancel(context.Background())
	defer abort()
	_ = rdd.RunParallel(gctx, rdd.ExecConfig{Workers: threads}, len(groups), func(i int) {
		g := groups[i]
		recs, stats, err := pipeline.ProcessKeyGroup(g.Key, g.Clusters, g.Data, params, feat)
		if err != nil {
			work[i].err = err
			abort()
			return
		}
		work[i].recs = recs
		work[i].parsed = int64(stats.EventsParsed)
		// Recover per-cluster sizes for scheduling skew: the searched SPE
		// total distributes over this key's clusters.
		events := make([]spe.SPE, 0, len(g.Data))
		for _, payload := range g.Data {
			e, err := spe.ParseDataPayload(payload)
			if err != nil {
				continue
			}
			events = append(events, e)
		}
		spe.SortByDM(events)
		for _, cp := range g.Clusters {
			cl, err := spe.ParseClusterPayload(cp)
			if err != nil {
				continue
			}
			n := 0
			for _, e := range events {
				if cl.Contains(e) {
					n++
				}
			}
			work[i].clusterSPEs = append(work[i].clusterSPEs, n)
		}
	})
	result.WallSeconds = time.Since(wallStart).Seconds()
	var parseRecords int64
	var clusterSPEs []int
	for _, w := range work {
		if w.err != nil {
			return Result{}, w.err
		}
		result.ML = append(result.ML, w.recs...)
		parseRecords += w.parsed
		clusterSPEs = append(clusterSPEs, w.clusterSPEs...)
	}
	result.Records = len(result.ML)

	// Simulated time. Phase A: the single disk streams both files in
	// serially — no thread helps here.
	var sim des.Simulator
	sim.Advance(float64(dataBytes) / (m.DiskMBps * 1e6))
	// Parsing and grouping the records is parallelizable up to the
	// machine's effective capacity.
	parseCPU := (float64(dataBytes)*cost.CPUPerByte + float64(parseRecords)*cost.CPUPerRecord) / m.CPUFactor
	sim.Advance(parseCPU / m.effectiveParallelism(threads))

	// Phase B: one task per cluster on the thread pool. Oversubscribed or
	// bandwidth-starved threads slow each other down by the contention
	// factor; the cluster-size skew (median 19 SPEs, max thousands)
	// produces the stragglers the paper discusses under RQ 1.
	contention := m.contention(threads)
	pool := des.NewSlotPool(threads, sim.Now(), nil)
	for _, n := range clusterSPEs {
		cpu := float64(n) * cost.SearchPerSPE / m.CPUFactor
		pool.Assign(cpu*contention + m.ThreadOverheadSec)
	}
	result.SimSeconds = pool.MaxEnd()
	return result, nil
}

// capacity is the machine's useful parallelism for this workload: core
// count (with hyper-threading headroom) clipped by the memory-bandwidth
// ceiling.
func (m Machine) capacity() float64 {
	c := float64(m.Cores)
	if m.HTBoost > 1 {
		c *= m.HTBoost
	}
	if m.MemBWCores > 0 && m.MemBWCores < c {
		c = m.MemBWCores
	}
	return c
}

// effectiveParallelism is the useful concurrency for a requested thread
// count.
func (m Machine) effectiveParallelism(threads int) float64 {
	t := float64(threads)
	if c := m.capacity(); t > c {
		return c
	}
	return t
}

// contention is the slowdown each thread suffers when the pool exceeds the
// machine's capacity.
func (m Machine) contention(threads int) float64 {
	t := float64(threads)
	c := m.capacity()
	if t <= c {
		return 1
	}
	return t / c
}
