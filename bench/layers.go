package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"drapid/internal/core"
	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/hdfs"
	"drapid/internal/obs"
	"drapid/internal/pipeline"
	"drapid/internal/rapidmt"
	"drapid/internal/rdd"
	"drapid/internal/sift"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// layerInput is what the traced layer pass runs the layers on: the
// workload's observation and search parameters, and — for the survey
// workload — its pre-detected events. A detect workload's identification
// input is the event set its own search finds.
type layerInput struct {
	raw        []byte
	dmMax      float64
	normWindow int
	block      int
	survey     *surveyInput
}

// surveyInput is identification input that did not come from raw.
type surveyInput struct {
	obs    []spe.Observation
	grid   *dmgrid.Grid
	feat   features.Config
	params core.Params
}

// layerRun is one traced run: the tracer, the metrics so far, and what
// one layer's calls hand to the next.
type layerRun struct {
	tr   *tracer
	root int // the span every layer call is a child of
	in   *instance
	cfg  runConfig
	exec rdd.ExecConfig // W workers behind one limiter, as the engine's pool
	m    map[string]summary
	// err is the first failed call or consistency check; later calls are
	// skipped and the pass returns it.
	err error

	fb            *sps.Filterbank
	grid          *dmgrid.Grid // the detect drivers' single-stage trial grid
	events        []spe.SPE    // what sps.Search found
	readS, batchS float64
}

// layerPass is the traced run: it pushes the workload's input through the
// exported functions of each layer in pipeline order, from outside, with a
// span around every call, and derives the per-layer metrics. The same
// calls are made for every workload, so every metric exists everywhere;
// README.md says which layers are on which workload's path.
func layerPass(tr *tracer, in *instance, cfg runConfig, timed []iteration) (map[string]summary, error) {
	r := &layerRun{tr: tr, root: tr.start("layers", 0), in: in, cfg: cfg, m: make(map[string]summary)}
	defer tr.end(r.root)
	r.exec = rdd.ExecConfig{Workers: cfg.workers}
	r.exec.Limiter = rdd.NewLimiter(cfg.workers)
	for _, layer := range []func(){
		r.search,
		func() { r.identify(timed[0].res.Records) },
		r.fleet,
		func() { r.engine(timed) },
	} {
		if layer(); r.err != nil {
			return r.m, r.err
		}
	}
	return r.m, nil
}

func (r *layerRun) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a zero denominator: nothing was there to measure
	}
	r.m[name] = summarize(unit, v)
}

// span times f under the root span, handing it the new span's id, and
// returns its seconds.
func (r *layerRun) span(name string, f func(id int) error) float64 {
	if r.err != nil {
		return 0
	}
	id := r.tr.start(name, r.root)
	err := f(id)
	d := r.tr.end(id)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
	return d.Seconds()
}

// call times one layer call.
func (r *layerRun) call(name string, f func() error) float64 {
	return r.span(name, func(int) error { return f() })
}

func (r *layerRun) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// search covers sps: ingest, zero-DM, the batch search under both plans,
// the block stream, and the two per-trial kernels on their own.
func (r *layerRun) search() {
	li := r.in.layers
	ctx := context.Background()
	r.readS = r.call("sps.Read", func() (err error) {
		r.fb, err = sps.Read(bytes.NewReader(li.raw))
		return err
	})
	// The engine's detect drivers build this single-stage grid, and from it
	// the trial list, the slope threshold and the feature context.
	var err error
	if r.grid, err = dmgrid.New([]dmgrid.Stage{{Lo: 0, Hi: li.dmMax + 1, Step: 1}}); err != nil {
		r.failf("trial grid: %w", err)
	}
	if r.err != nil {
		return
	}
	fb := r.fb
	r.set("sps.read_s", "s", r.readS)
	r.set("sps.read_mb_s", "MiB/s", float64(len(li.raw))/(1<<20)/r.readS)
	block := li.block
	if block == 0 {
		block = min(16384, fb.NSamples)
	}
	r.set("sps.block_read_s", "s", r.call("sps.BlockReader", func() error {
		br, err := sps.NewBlockReader(bytes.NewReader(li.raw), block, sps.MaxShift(fb.Header, li.dmMax))
		for err == nil {
			var b *sps.Block
			if b, err = br.Next(); err == nil && b.Last {
				return nil
			}
		}
		return err
	}))
	r.set("sps.zerodm_s", "s", r.call("sps.ZeroDMFilter", func() error {
		sps.ZeroDMFilter(fb)
		return nil
	}))

	search := sps.Config{DMs: r.grid.Trials(), NormWindow: li.normWindow, ZeroDM: true, Exec: r.exec}
	var stats sps.Stats
	before := readRuntime()
	r.batchS = r.call("sps.Search", func() (err error) {
		r.events, stats, err = sps.Search(ctx, fb, search)
		return err
	})
	cost := readRuntime().sub(before)
	r.set("sps.search_batch_s", "s", r.batchS)
	r.set("sps.dedisperse_busy_s", "s", stats.StageSeconds[sps.StageDedisperse])
	r.set("sps.normalise_busy_s", "s", stats.StageSeconds[sps.StageNormalise])
	r.set("sps.boxcar_busy_s", "s", stats.StageSeconds[sps.StageBoxcar])
	r.set("sps.search_mallocs", "count", cost.mallocs)
	r.set("sps.search_alloc_mb", "MiB", cost.allocBytes/(1<<20))
	r.set("sps.trials", "count", float64(stats.Trials))
	r.set("sps.samples", "count", float64(stats.Samples))
	r.set("sps.events", "count", float64(len(r.events)))

	brute := search
	brute.Plan = sps.DedispersePlan{Kind: sps.PlanBrute}
	bruteS := r.call("sps.Search/brute", func() error {
		_, _, err := sps.Search(ctx, fb, brute)
		return err
	})
	r.set("sps.search_brute_s", "s", bruteS)
	r.set("sps.subband_speedup", "ratio", bruteS/r.batchS)
	// Computed, not measured, bytes: every trial reads every channel of
	// every sample once as a float32.
	r.set("sps.brute_gb_s", "GB/s", float64(len(search.DMs))*float64(fb.NSamples)*float64(fb.NChans)*4/1e9/bruteS)

	stream := search
	stream.BlockSamples = block
	if stream.NormWindow == 0 {
		stream.NormWindow = sps.DefaultNormWindow // the block stream cannot take global moments
	}
	streamed := 0
	streamS := r.call("sps.SearchStream", func() error {
		_, _, err := sps.SearchStream(ctx, bytes.NewReader(li.raw), stream, func(ev []spe.SPE) error {
			streamed += len(ev)
			return nil
		})
		return err
	})
	r.set("sps.search_stream_s", "s", streamS)
	r.set("sps.stream_over_batch", "ratio", r.batchS/streamS)
	if li.normWindow != 0 && streamed != len(r.events) {
		r.failf("sps.SearchStream emitted %d events, sps.Search %d", streamed, len(r.events))
	}

	series := make([]float64, (1<<20)/r.cfg.scale)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	// The best of three calls, after a collection: the searches above leave
	// a heap whose GC assists and page faults would otherwise be what a
	// 10 ms kernel call times.
	runtime.GC()
	kernel := func(name string, f func()) float64 {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			best = min(best, r.call(name, func() error {
				f()
				return nil
			}))
		}
		return best * 1e9 / float64(len(series))
	}
	r.set("sps.normalize_ns_per_sample", "ns", kernel("sps.Normalize", func() { sps.Normalize(series, sps.DefaultNormWindow) }))
	r.set("sps.boxcar_ns_per_sample", "ns", kernel("sps.BoxcarDetect", func() {
		sps.BoxcarDetect(series, sps.DefaultWidths(), sps.DefaultThreshold)
	}))
}

// identify covers everything between events and candidates: dbscan, the
// CSV round trip through spe and hdfs, pipeline over rdd, the
// multithreaded baseline, and core, features and sift cluster by cluster.
// engineRecords is what the engine job identified.
func (r *layerRun) identify(engineRecords int) {
	sv := r.in.layers.survey
	if sv == nil {
		params := core.DefaultParams()
		params.SlopeM = core.DefaultSlopeM * 0.25 // scaled to the grid's unit step, as the engine does
		sv = &surveyInput{
			obs:    []spe.Observation{{Key: spe.Key{Dataset: r.fb.SourceName, MJD: r.fb.TStartMJD}, Events: r.events}},
			grid:   r.grid,
			feat:   features.Config{Grid: r.grid, BandMHz: r.fb.BandwidthMHz(), FreqGHz: r.fb.CenterFreqGHz()},
			params: params,
		}
	}
	nEvents := 0
	for _, o := range sv.obs {
		nEvents += len(o.Events)
	}
	perEvent := 1 / float64(max(nEvents, 1))

	// dbscan on its own, then pipeline.Prepare, which runs it again and
	// formats both CSV files.
	clusters := 0
	clusterS := r.call("dbscan.Cluster", func() error {
		for _, o := range sv.obs {
			clusters += len(dbscan.Cluster(o.Events, sv.grid, o.Key, dbscan.DefaultParams()).Clusters)
		}
		return nil
	})
	r.set("dbscan.cluster_s", "s", clusterS)
	r.set("dbscan.us_per_event", "us", 1e6*clusterS*perEvent)
	r.set("dbscan.clusters", "count", float64(clusters))
	var prep *pipeline.Prepared
	r.set("pipeline.prepare_s", "s", r.call("pipeline.Prepare", func() error {
		prep = pipeline.Prepare(sv.obs, sv.grid, dbscan.DefaultParams())
		return nil
	}))

	// spe and hdfs: the CSV round trip between detection and identification.
	lines := make([]string, 0, nEvents)
	r.set("spe.format_ns_per_line", "ns", 1e9*perEvent*r.call("spe.FormatDataLine", func() error {
		for _, o := range sv.obs {
			for _, e := range o.Events {
				lines = append(lines, spe.FormatDataLine(o.Key, e))
			}
		}
		return nil
	}))
	r.set("spe.parse_ns_per_line", "ns", 1e9*perEvent*r.call("spe.ParseDataLine", func() error {
		for _, l := range lines {
			if _, _, err := spe.ParseDataLine(l); err != nil {
				return err
			}
		}
		return nil
	}))
	fs := hdfs.New(hdfs.Config{BlockSize: 8 << 20, Replication: 3}, 15) // the engine's default storage
	hdfsBytes := 0
	for _, l := range prep.DataLines {
		hdfsBytes += len(l) + 1
	}
	r.set("hdfs.write_s", "s", r.call("hdfs.WriteLines", func() error {
		_, err := fs.WriteLines("bench/lines.csv", prep.DataLines)
		return err
	}))
	r.set("hdfs.bytes", "B", float64(hdfsBytes))
	r.set("pipeline.upload_s", "s", r.call("pipeline.Upload", func() error {
		return prep.Upload(fs, "bench/spe.csv", "bench/clusters.csv")
	}))

	// pipeline over rdd, as Engine.Submit runs it: four paper-shape
	// executors, 32 partitions per core.
	executors := make([]*rdd.Executor, 4)
	for i := range executors {
		executors[i] = &rdd.Executor{ID: i, Node: i, Cores: 2, MemMB: 2560}
	}
	rctx := rdd.NewContext(fs, executors, rdd.DefaultCostModel())
	rctx.Exec = r.exec
	var job pipeline.JobResult
	drapidS := r.call("pipeline.RunDRAPID", func() (err error) {
		job, err = pipeline.RunDRAPID(rctx, pipeline.JobConfig{
			DataFile: "bench/spe.csv", ClusterFile: "bench/clusters.csv", OutDir: "bench/ml",
			PartitionsPerCore: 32, Params: sv.params, Feat: sv.feat,
		})
		return err
	})
	r.set("pipeline.rundrapid_s", "s", drapidS)
	r.set("pipeline.records", "count", float64(job.Records))
	r.set("rdd.tasks", "count", float64(job.Metrics.Tasks))
	r.set("rdd.stages", "count", float64(job.Metrics.Stages))
	r.set("rdd.shuffle_mb", "MiB", float64(job.Metrics.ShuffleBytes)/(1<<20))
	r.set("rdd.wall_s", "s", job.Metrics.WallSeconds)
	if r.in.layers.block == 0 && job.Records != engineRecords {
		// Where the engine identifies its events in one piece (not segment
		// by segment, as a stream job does) the layer pass has made the
		// same calls on the same input and must find the same pulses.
		r.failf("pipeline.RunDRAPID identified %d records, the engine job %d", job.Records, engineRecords)
	}

	// The same key groups searched directly on one thread, and by the
	// multithreaded baseline.
	dataByKey, clustersByKey := groupByKey(prep.DataLines), groupByKey(prep.ClusterLines)
	r.set("pipeline.keygroup_s", "s", r.call("pipeline.ProcessKeyGroup", func() error {
		for key, cl := range clustersByKey {
			if _, _, err := pipeline.ProcessKeyGroup(key, cl, dataByKey[key], sv.params, sv.feat); err != nil {
				return err
			}
		}
		return nil
	}))
	mtS := r.call("rapidmt.Run", func() error {
		_, err := rapidmt.Run(prep.DataLines, prep.ClusterLines, r.cfg.workers, rapidmt.PaperWorkstation(),
			rdd.DefaultCostModel(), sv.params, sv.feat)
		return err
	})
	r.set("rapidmt.run_s", "s", mtS)
	r.set("pipeline.drapid_over_mt", "ratio", drapidS/mtS)

	// core, features and sift, cluster by cluster.
	type member struct {
		key    spe.Key
		cl     *spe.Cluster
		events []spe.SPE // time order, as sift reads them
		byDM   []spe.SPE // DM order, as core and features read them
	}
	var members []member
	for i, o := range sv.obs {
		res := prep.Results[i]
		for c := range res.Members {
			ev := res.MemberEvents(c, o.Events)
			byDM := append([]spe.SPE(nil), ev...)
			spe.SortByDM(byDM)
			members = append(members, member{o.Key, res.Clusters[c], ev, byDM})
		}
	}
	perMember := 1 / float64(max(len(members), 1))
	r.set("core.search_us_per_cluster", "us", 1e6*perMember*r.call("core.Search", func() error {
		for _, mb := range members {
			core.Search(mb.byDM, sv.params)
		}
		return nil
	}))
	pulses := 0
	extractS := r.call("features.ExtractAll", func() error {
		for _, mb := range members {
			pulses += len(features.ExtractAll(mb.byDM, mb.cl, sv.params, sv.feat))
		}
		return nil
	})
	r.set("features.extract_us_per_pulse", "us", 1e6*extractS/float64(max(pulses, 1)))
	groups := make([]sift.Group, len(members))
	r.set("sift.build_us_per_group", "us", 1e6*perMember*r.call("sift.Build", func() error {
		for i, mb := range members {
			groups[i] = sift.Build(i, mb.key, mb.events, sift.Params{})
		}
		return nil
	}))
	r.set("sift.sources_ms", "ms", 1e3*r.call("sift.Sources", func() error {
		sift.SortGroups(groups)
		sift.Sources(groups, sift.Params{})
		return nil
	}))
}

// fleet covers digest, plan, the shards one by one, then the coordinator
// over in-process workers and over loopback HTTP workers built the same
// way — the difference between those two is codec + blob + HTTP.
func (r *layerRun) fleet() {
	li := r.in.layers
	ctx := context.Background()
	r.set("fleet.digest_mb_s", "MiB/s", float64(len(li.raw))/(1<<20)/r.call("fleet.Digest", func() error {
		fleet.Digest(li.raw)
		return nil
	}))
	var shards []fleet.ShardSpec
	r.set("fleet.plan_ms", "ms", 1e3*r.call("fleet.PlanDM", func() error {
		shards = fleet.PlanDM("bench", li.raw, r.grid.Trials(), fleet.SearchSpec{NormWindow: li.normWindow, ZeroDM: true}, 4)
		return nil
	}))
	var shardS []float64
	for _, sh := range shards {
		shardS = append(shardS, r.call("fleet.RunShard", func() error {
			_, err := fleet.RunShard(ctx, sh, r.exec, nil)
			return err
		}))
	}
	r.set("fleet.runshard_s", "s", summarize("s", shardS...).Value)
	r.set("fleet.shard_work_ratio", "ratio", r.tr.seconds("fleet.RunShard")/(r.readS+r.batchS))

	// coordinate runs the shards over the workers, each wrapped so that
	// its shards are spans under the coordinator's.
	coordinate := func(name string, reg *obs.Registry, workers ...fleet.Worker) (float64, fleet.JobStatus) {
		var status fleet.JobStatus
		secs := r.span(name, func(id int) error {
			traced := make([]fleet.Worker, len(workers))
			for i, w := range workers {
				traced[i] = tracedWorker{w, r.tr, id}
			}
			coord := fleet.NewCoordinator(fleet.Config{Metrics: reg}, traced...)
			defer coord.Close()
			merged := 0
			var err error
			_, status, err = coord.Run(ctx, shards, func(ev []spe.SPE) error {
				merged += len(ev)
				return nil
			}, fleet.RunOptions{})
			if err == nil && merged != len(r.events) {
				err = fmt.Errorf("merged %d events, sps.Search found %d", merged, len(r.events))
			}
			return err
		})
		return secs, status
	}
	localS, _ := coordinate("fleet.Coordinator.Run/local", nil,
		fleet.NewLocal("local-0", workerExec()), fleet.NewLocal("local-1", workerExec()))
	r.set("fleet.coord_local_s", "s", localS)

	reg, workerReg := obs.NewRegistry(), obs.NewRegistry()
	servers, urls := loopbackWorkers(2, 2*int64(len(li.raw)), workerReg)
	remotes := make([]fleet.Worker, len(urls))
	for i, u := range urls {
		remotes[i] = fleet.NewRemote(fmt.Sprintf("remote-%d", i), u, nil, fleet.WithWireMetrics(reg))
	}
	remoteS, status := coordinate("fleet.Coordinator.Run/remote", reg, remotes...)
	for _, s := range servers {
		s.Close()
	}
	r.set("fleet.coord_remote_s", "s", remoteS)
	var sent, recv, dispatchSum, dispatchN float64
	for _, w := range remotes {
		l := obs.L("worker", w.Name())
		sent += reg.Counter("drapid_fleet_bytes_sent_total", "", l).Value()
		recv += reg.Counter("drapid_fleet_bytes_received_total", "", l).Value()
		h := reg.Histogram("drapid_fleet_dispatch_seconds", "", nil, l)
		dispatchSum += h.Sum()
		dispatchN += float64(h.Count())
	}
	r.set("fleet.wire_sent_mb", "MiB", sent/(1<<20))
	r.set("fleet.wire_recv_kb", "KiB", recv/(1<<10))
	r.set("fleet.blob_hits", "count", workerReg.Counter("drapid_fleet_blob_cache_hits_total", "").Value())
	r.set("fleet.blob_misses", "count", workerReg.Counter("drapid_fleet_blob_cache_misses_total", "").Value())
	r.set("fleet.dispatch_ms", "ms", 1e3*dispatchSum/max(dispatchN, 1))
	r.set("fleet.resubmitted", "count", float64(status.Resubmitted))
}

// engine covers the root package: the timed pass seen from outside, plus
// the workload's job on a one-worker engine — the single-threaded
// baseline.
func (r *layerRun) engine(timed []iteration) {
	var job1w float64
	r.call("engine.job/1-worker", func() error {
		e1, err := r.in.newEngine(1)
		if err != nil {
			return err
		}
		defer e1.Close()
		it, err := r.in.runOnce(e1, false)
		job1w = it.job.Seconds()
		return err
	})
	jobS := summarize("s", column(timed, func(it iteration) float64 { return it.job.Seconds() })...).Value
	r.m["engine.submit_ms"] = summarize("ms", column(timed, func(it iteration) float64 { return 1e3 * it.submit.Seconds() })...)
	var pathS float64
	for _, name := range r.in.path {
		pathS += r.tr.seconds(name)
	}
	r.set("engine.self_s", "s", jobS-pathS)
	last := timed[len(timed)-1]
	r.set("engine.segments", "count", float64(last.res.Stages["classify"].Calls))
	r.set("engine.rdd_tasks", "count", float64(last.res.Tasks))
	r.set("engine.stage_sum_ratio", "ratio", r.in.stageSumRatio(last))
	var total runtimeCounters
	for _, it := range timed {
		total = total.add(it.cost)
	}
	n := float64(len(timed))
	r.set("engine.alloc_mb_per_job", "MiB", total.allocBytes/n/(1<<20))
	r.set("engine.mallocs_per_job", "count", total.mallocs/n)
	r.set("engine.gc_cpu_frac", "fraction", total.gcCPU/total.totalCPU)
	r.set("engine.job_1w_s", "s", job1w)
	r.set("engine.scaling_eff", "ratio", job1w/(float64(r.cfg.workers)*jobS))
}

// stageSumRatio is the §10.2 partition check: the stage walls the engine
// reports, over the clock they are meant to partition. Batch detect jobs
// stop DetectSeconds at the end of the search, so only the detect-phase
// stages count there; stream and fleet jobs cover the whole loop. An
// identification job has no detect clock: its stages are held against
// the wall between Submit returning and Wait returning.
func (in *instance) stageSumRatio(it iteration) float64 {
	res := it.res
	var sum float64
	for name, st := range res.Stages {
		if in.detectPhaseOnly && (name == "cluster" || name == "classify" || name == "sift") {
			continue
		}
		sum += st.WallSeconds
	}
	if res.DetectSeconds > 0 {
		return sum / res.DetectSeconds
	}
	return sum / (it.job - it.submit).Seconds()
}

// tracedWorker records a span around every shard a coordinator hands the
// worker, under the coordinator's span.
type tracedWorker struct {
	fleet.Worker
	tr     *tracer
	parent int
}

func (w tracedWorker) Run(ctx context.Context, spec fleet.ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	id := w.tr.start("fleet.Worker.Run/"+w.Name(), w.parent)
	defer w.tr.end(id)
	return w.Worker.Run(ctx, spec, emit)
}

// groupByKey splits CSV lines into per-observation payloads, in the order
// the pipeline's own grouping keeps them.
func groupByKey(lines []string) map[string][]string {
	out := make(map[string][]string)
	for _, l := range lines {
		if spe.IsHeader(l) {
			continue
		}
		if k, payload, err := spe.SplitKeyed(l); err == nil {
			out[k] = append(out[k], payload)
		}
	}
	return out
}
