package sps

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// Config parameterises one single-pulse search over a filterbank.
type Config struct {
	// DMs is the ascending trial dispersion-measure grid (pc cm⁻³).
	DMs []float64
	// Widths is the boxcar width ladder in samples; empty takes
	// DefaultWidths (1…64, octave-spaced).
	Widths []int
	// Threshold is the matched-filter SNR detection threshold; zero takes
	// DefaultThreshold.
	Threshold float64
	// NormWindow is the running-normalisation window in samples
	// (Normalize); zero uses the global moments of each trial's series.
	NormWindow int
	// ZeroDM applies the zero-DM filter (ZeroDMFilter's arithmetic) before
	// dedispersion, cancelling broadband RFI at the cost of sensitivity to
	// genuinely zero-DM signals. Batch and stream alike fuse it into the
	// channel-major staging of each block, so it never costs a filtered
	// copy of the data. Detect jobs submitted through the engine enable it
	// by default.
	ZeroDM bool
	// Plan selects the dedispersion strategy (DESIGN.md §6): the zero
	// value picks two-stage subband dedispersion with an auto-chosen
	// subband count whenever its cost model beats brute force, falling
	// back to the brute kernel when it cannot (the half-sample ceiling
	// degenerates the nominal grid into the fine grid — low observing
	// frequencies with fine sampling against a coarse trial grid).
	Plan DedispersePlan
	// TrialLo and TrialHi restrict the batch search to the half-open range
	// [TrialLo, TrialHi) of DMs — the sharding hook of the coordinator +
	// worker fleet (internal/fleet, DESIGN.md §9). The full grid must still
	// be supplied: dedispersion-plan resolution (the subband nominal grid
	// and trial→nominal assignment) always derives from the whole grid, so
	// a trial searched under any restriction produces bit-identical events
	// to the same trial in an unrestricted run. Both zero searches every
	// trial. The streaming driver does not support restriction.
	TrialLo, TrialHi int
	// BlockSamples switches the search to the bounded-memory block driver
	// (DESIGN.md §7): the observation is consumed as gulps of this many
	// samples with the dispersion overlap carried between them, and the
	// emitted events are record-for-record identical to the batch path for
	// any block size (BlockSamples must cover the largest trial's sweep) and
	// any worker count — provided NormWindow is explicit, since streaming
	// substitutes DefaultNormWindow for the batch default of global
	// moments. Zero (the default) keeps the whole-file batch driver.
	BlockSamples int
	// Exec configures the worker pool the DM trials fan out on — the same
	// executor the distributed engine's stages use, so a search submitted
	// through the engine shares its host pool (and token-bucket limiter)
	// with co-tenant jobs. The zero value runs on all host cores.
	Exec rdd.ExecConfig
}

// DefaultThreshold is the detection threshold real surveys typically cut
// candidate lists at (the paper's SPE files are 5–6 σ thresholded).
const DefaultThreshold = 6.0

// Stats summarises one search.
type Stats struct {
	// Trials is the number of DM trials dedispersed.
	Trials int
	// Samples is the total dedispersed samples searched across trials.
	Samples int64
	// Events is the number of threshold crossings emitted.
	Events int
	// Plan describes the dedispersion strategy that ran: "brute", or
	// SubbandPlan.Describe() for the two-stage path.
	Plan string
	// StageSeconds breaks the search down by pipeline stage (DESIGN.md
	// §10). The one sequential driver phase (ingest — streaming block
	// reads) records wall seconds; the concurrent kernels (zerodm, fused
	// into the parallel staging tiles, dedisperse, normalise and boxcar)
	// record *busy* seconds summed across workers, which the engine
	// apportions onto the measured fan-out wall so a job's stage walls
	// partition its elapsed time.
	// Fleet shards ship this map back to the coordinator, which merges
	// it additively across shards.
	StageSeconds map[string]float64
}

// Stage names of StageSeconds (also the engine's Result.Stages keys).
const (
	StageIngest     = "ingest"
	StageZeroDM     = "zerodm"
	StageDedisperse = "dedisperse"
	StageNormalise  = "normalise"
	StageBoxcar     = "boxcar"
)

// stageClock accumulates per-stage busy time from concurrent search
// tasks. One mutex across workers is fine here: it is taken once per
// trial (batch) or once per trial-block (streaming), both of which are
// orders of magnitude coarser than the kernels they time. A nil clock
// is a no-op so uninstrumented constructions stay valid.
type stageClock struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

func newStageClock() *stageClock { return &stageClock{m: make(map[string]time.Duration)} }

// add3 merges up to three stage durations under one lock.
func (sc *stageClock) add3(s1 string, d1 time.Duration, s2 string, d2 time.Duration, s3 string, d3 time.Duration) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.m[s1] += d1
	if s2 != "" {
		sc.m[s2] += d2
	}
	if s3 != "" {
		sc.m[s3] += d3
	}
	sc.mu.Unlock()
}

func (sc *stageClock) add(stage string, d time.Duration) { sc.add3(stage, d, "", 0, "", 0) }

// seconds snapshots the accumulated stages (nil when nothing recorded).
func (sc *stageClock) seconds() map[string]float64 {
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(sc.m))
	for k, v := range sc.m {
		out[k] = v.Seconds()
	}
	return out
}

// kernelScratch is the worker-owned scratch of the normalise and boxcar
// kernels: the normalisation prefix sums and the boxcar ladder with its
// window sums, plus — on the streaming path, where it is sized to one
// streamChunk sub-chunk rather than to the series — the [carried tail | new
// samples] staging of the raw and the normalised samples.
type kernelScratch struct {
	x    []float64
	z    []float64
	nsum []float64
	nsq  []float64
	lad  *boxLadder
}

// trialBuffers is the per-trial scratch a worker reuses: the dedispersed
// series and the downstream kernel scratch. Pooling them makes
// steady-state search allocation-free per trial, which is what lets the DM
// fan-out scale with workers instead of with the allocator.
type trialBuffers struct {
	series []float64
	kernelScratch
}

var trialPool = sync.Pool{New: func() any { return &trialBuffers{} }}

// subbandBuffers is the per-nominal scratch of the two-stage path: the
// NSub stage-1 subband series, the stage-2 combined series, and the same
// downstream scratch trialBuffers carries. One set serves a whole nominal
// group — stage 1 once, then every assigned fine trial — so steady-state
// subband search is allocation-free per nominal just as the brute path is
// per trial.
type subbandBuffers struct {
	sub      [][]float32
	combined []float64
	kernelScratch
}

var subbandPool = sync.Pool{New: func() any { return &subbandBuffers{} }}

// Search runs the full frontend over one filterbank: for every trial DM it
// dedisperses (two-stage subband by default, one-stage brute force when
// forced or cheaper — see Config.Plan and DESIGN.md §6), normalises
// (Normalize), and matched-filters (BoxcarDetect), emitting one spe.SPE
// per detection. Work fans out concurrently on cfg.Exec via the rdd
// worker pool — per trial DM on the brute path, per nominal DM on the
// subband path — and per-trial outputs are folded back in grid order, so
// the result is record-for-record identical for any worker count. Event
// times are the boxcar-centre arrival times at the highest observed
// frequency, in seconds from the start of the observation; Downfact
// carries the matched boxcar width.
//
// Trials whose dispersion sweep exceeds the observation are skipped (a
// short observation simply cannot constrain them).
func Search(ctx context.Context, fb *Filterbank, cfg Config) ([]spe.SPE, Stats, error) {
	var stats Stats
	if err := fb.Validate(); err != nil {
		return nil, stats, err
	}
	if len(fb.Data) != fb.NSamples*fb.NChans {
		return nil, stats, fmt.Errorf("sps: data has %d values, header says %d", len(fb.Data), fb.NSamples*fb.NChans)
	}
	if cfg.BlockSamples > 0 {
		// Bounded-memory block driver (DESIGN.md §7), collected back into
		// the batch return shape; the event records are identical.
		var out []spe.SPE
		stats, err := SearchFilterbank(ctx, fb, cfg, func(events []spe.SPE) error {
			out = append(out, events...)
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
		return out, stats, nil
	}
	widths, threshold, sub, planDesc, err := resolveSearch(fb.Header, cfg)
	if err != nil {
		return nil, stats, err
	}
	stats.Plan = planDesc
	sc := newStageClock()
	// The filterbank is staged channel-major once (DESIGN.md §11) —
	// amortised over the whole trial grid — with the zero-DM filter fused
	// into the staging tiles.
	cm := &chanMajor{}
	if err := cm.stage(ctx, cfg.Exec, fb.Data, fb.NSamples, fb.NChans, cfg.ZeroDM, sc); err != nil {
		return nil, stats, err
	}
	bs := &batchSearch{
		cfg: cfg, cm: cm, tabs: buildShiftTables(fb.Header, cfg.DMs, sub),
		widths: widths, threshold: threshold, tsamp: fb.TsampSec, sc: sc,
		perTrial: make([][]spe.SPE, len(cfg.DMs)),
		searched: make([]int64, len(cfg.DMs)),
	}
	if sub != nil {
		err = bs.subband(ctx, sub)
	} else {
		err = bs.brute(ctx)
	}
	stats.StageSeconds = sc.seconds()
	if err != nil {
		return nil, stats, err
	}
	var out []spe.SPE
	for i, events := range bs.perTrial {
		stats.Samples += bs.searched[i]
		if bs.searched[i] > 0 {
			stats.Trials++
		}
		out = append(out, events...)
	}
	spe.SortByTime(out)
	stats.Events = len(out)
	return out, stats, nil
}

// resolveSearch validates the search parameters shared by the batch and
// streaming drivers — the trial grid, the width ladder, the threshold —
// and resolves the dedispersion plan.
func resolveSearch(hdr Header, cfg Config) (widths []int, threshold float64, sub *SubbandPlan, planDesc string, err error) {
	if len(cfg.DMs) == 0 {
		return nil, 0, nil, "", fmt.Errorf("sps: no trial DMs")
	}
	for i, dm := range cfg.DMs {
		if math.IsNaN(dm) || math.IsInf(dm, 0) || dm < 0 {
			return nil, 0, nil, "", fmt.Errorf("sps: trial DM %g must be finite and >= 0", dm)
		}
		if i > 0 && dm <= cfg.DMs[i-1] {
			return nil, 0, nil, "", fmt.Errorf("sps: trial DMs must ascend (trial %d: %g after %g)", i, dm, cfg.DMs[i-1])
		}
	}
	widths, err = validWidths(cfg.Widths)
	if err != nil {
		return nil, 0, nil, "", err
	}
	threshold = cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	if threshold < 0 {
		return nil, 0, nil, "", fmt.Errorf("sps: threshold %g must be >= 0", threshold)
	}
	if cfg.TrialLo != 0 || cfg.TrialHi != 0 {
		if cfg.TrialLo < 0 || cfg.TrialHi <= cfg.TrialLo || cfg.TrialHi > len(cfg.DMs) {
			return nil, 0, nil, "", fmt.Errorf("sps: trial range [%d, %d) outside grid of %d trials", cfg.TrialLo, cfg.TrialHi, len(cfg.DMs))
		}
	}
	sub, planDesc, err = resolveDedisperse(hdr, cfg.DMs, cfg.Plan)
	if err != nil {
		return nil, 0, nil, "", err
	}
	return widths, threshold, sub, planDesc, nil
}

// trialRange resolves Config.TrialLo/TrialHi to the half-open index range
// of cfg.DMs a batch search executes (the whole grid by default).
func trialRange(cfg Config) (lo, hi int) {
	if cfg.TrialLo == 0 && cfg.TrialHi == 0 {
		return 0, len(cfg.DMs)
	}
	return cfg.TrialLo, cfg.TrialHi
}

// batchSearch is one batch search over the staged observation: its
// read-only inputs and the per-trial output slots its tasks fill. Each trial
// belongs to exactly one task, so every slot is written once and the
// grid-order fold is deterministic for any worker count.
type batchSearch struct {
	cfg       Config
	cm        *chanMajor
	tabs      *shiftTables
	widths    []int
	threshold float64
	tsamp     float64
	sc        *stageClock
	perTrial  [][]spe.SPE
	searched  []int64
}

// detect runs trial i's dedispersed series through normalise and boxcar
// into its output slot and returns the two kernels' busy times.
func (b *batchSearch) detect(i int, series []float64, ks *kernelScratch) (norm, box time.Duration) {
	t0 := time.Now()
	ks.nsum, ks.nsq = normalizeInto(series, b.cfg.NormWindow, ks.nsum, ks.nsq)
	t1 := time.Now()
	ks.lad = ladderFor(ks.lad, b.widths)
	b.searched[i] = int64(len(series))
	b.perTrial[i] = trialEvents(b.cfg.DMs[i], b.tsamp, ks.lad.detect(series, b.threshold))
	return t1.Sub(t0), time.Since(t1)
}

// brute is the one-stage strategy: every trial DM in the configured trial
// range dedisperses the full band independently, fanned out per trial on
// the pool. Grids narrower than the pool switch to a per-time-tile fan-out
// (bruteTiled) so the workers stay busy even on a single trial.
func (b *batchSearch) brute(ctx context.Context) error {
	lo, hi := trialRange(b.cfg)
	if hi-lo < b.cfg.Exec.NumWorkers() {
		return b.bruteTiled(ctx, lo, hi)
	}
	return rdd.RunParallel(ctx, b.cfg.Exec, hi-lo, func(k int) {
		i := lo + k
		n := b.cm.rows - b.tabs.sweeps[i]
		if n < 1 {
			return // sweep longer than the observation: unconstrainable trial
		}
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		t0 := time.Now()
		bufs.series = dedisperse(b.cm, b.tabs.trialCh[i], 0, b.cm.nchan, 0, n, bufs.series)
		dd := time.Since(t0)
		norm, box := b.detect(i, bufs.series, &bufs.kernelScratch)
		b.sc.add3(StageDedisperse, dd, StageNormalise, norm, StageBoxcar, box)
	})
}

// bruteTiled is the brute path for trial grids narrower than the worker
// pool: each trial's accumulation fans out across its time tiles
// (tileRanges). Tiles write disjoint output ranges and each output sample
// keeps the fixed ascending-channel accumulation order, so the folded
// series — and every downstream record — is bit-identical to the per-trial
// path for any worker count.
func (b *batchSearch) bruteTiled(ctx context.Context, lo, hi int) error {
	bufs := trialPool.Get().(*trialBuffers)
	defer trialPool.Put(bufs)
	for i := lo; i < hi; i++ {
		n := b.cm.rows - b.tabs.sweeps[i]
		if n < 1 {
			continue // sweep longer than the observation: unconstrainable trial
		}
		t0 := time.Now()
		if cap(bufs.series) < n {
			bufs.series = make([]float64, n)
		}
		series := bufs.series[:n]
		clear(series)
		tiles := tileRanges(n)
		if err := rdd.RunParallel(ctx, b.cfg.Exec, len(tiles), func(j int) {
			accumulate(b.cm, b.tabs.trialCh[i], 0, b.cm.nchan, 0, tiles[j][0], tiles[j][1], series)
		}); err != nil {
			return err
		}
		dd := time.Since(t0)
		norm, box := b.detect(i, series, &bufs.kernelScratch)
		b.sc.add3(StageDedisperse, dd, StageNormalise, norm, StageBoxcar, box)
	}
	return nil
}

// subband is the two-stage strategy (DESIGN.md §6): fine trials group by
// their assigned nominal DM, and the fan-out unit is one nominal — stage 1
// dedisperses the subbands once, then every assigned fine trial combines,
// normalises and matched-filters in the same task.
func (b *batchSearch) subband(ctx context.Context, plan *SubbandPlan) error {
	groups := plan.nominalGroups()
	lo, hi := trialRange(b.cfg)
	if lo != 0 || hi != len(b.cfg.DMs) {
		// Restricted search: drop out-of-range fine trials from every
		// nominal group. Stage 1 (and the group→nominal geometry) is built
		// from the full grid, so the surviving trials' series are
		// bit-identical to an unrestricted run's.
		filtered := make([][]int, len(groups))
		for k, g := range groups {
			for _, i := range g {
				if i >= lo && i < hi {
					filtered[k] = append(filtered[k], i)
				}
			}
		}
		groups = filtered
	}
	return rdd.RunParallel(ctx, b.cfg.Exec, len(groups), func(k int) {
		if len(groups[k]) == 0 {
			return
		}
		bufs := subbandPool.Get().(*subbandBuffers)
		defer subbandPool.Put(bufs)
		// The two dedispersion stages interleave with the per-trial
		// downstream kernels inside dedisperseNominal, so dedisperse
		// time is the group total minus the timed callback kernels.
		var norm, box time.Duration
		t0 := time.Now()
		plan.dedisperseNominal(b.cm, b.tabs, k, groups[k], bufs, func(i int, series []float64) {
			dn, db := b.detect(i, series, &bufs.kernelScratch)
			norm, box = norm+dn, box+db
		})
		b.sc.add3(StageDedisperse, time.Since(t0)-norm-box, StageNormalise, norm, StageBoxcar, box)
	})
}

// trialEvents converts one trial's detections to SPE events (nil when the
// trial found nothing).
func trialEvents(dm, tsampSec float64, dets []Detection) []spe.SPE {
	if len(dets) == 0 {
		return nil
	}
	events := make([]spe.SPE, len(dets))
	for k, d := range dets {
		events[k] = spe.SPE{
			DM:       dm,
			SNR:      d.SNR,
			Time:     float64(d.Center()) * tsampSec,
			Sample:   int64(d.Center()),
			Downfact: d.Width,
		}
	}
	return events
}

// MaxTrials bounds a trial-DM grid: LinearDMs refuses a longer one, and
// so does DetectJob validation, before anything is allocated.
const MaxTrials = 1 << 20

// LinearDMs builds the ascending trial grid [lo, hi] spaced step apart —
// the simple dense plan brute-force dedispersion sweeps.
func LinearDMs(lo, hi, step float64) ([]float64, error) {
	if step <= 0 {
		return nil, fmt.Errorf("sps: DM step %g must be > 0", step)
	}
	if hi < lo || lo < 0 {
		return nil, fmt.Errorf("sps: bad DM range [%g, %g]", lo, hi)
	}
	n := int((hi-lo)/step) + 1
	if n > MaxTrials {
		return nil, fmt.Errorf("sps: DM grid of %d trials exceeds %d", n, MaxTrials)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, lo+float64(i)*step)
	}
	return out, nil
}
