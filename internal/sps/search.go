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
	// (Normalize). Zero uses the global moments of each trial's series on
	// the one-gulp search (BlockSamples zero), and DefaultNormWindow on a
	// gulped one, whose carries cannot hold the whole series.
	NormWindow int
	// ZeroDM applies the zero-DM filter (ZeroDMFilter's arithmetic) before
	// dedispersion, cancelling broadband RFI at the cost of sensitivity to
	// genuinely zero-DM signals. The search fuses it into the channel-major
	// staging of each block, so it never costs a filtered copy of the data.
	// Detect jobs submitted through the engine enable it by default.
	ZeroDM bool
	// Plan selects the dedispersion strategy (DESIGN.md §6): the zero
	// value picks two-stage subband dedispersion with an auto-chosen
	// subband count whenever its cost model beats brute force, falling
	// back to the brute kernel when it cannot (the half-sample ceiling
	// degenerates the nominal grid into the fine grid — low observing
	// frequencies with fine sampling against a coarse trial grid).
	Plan DedispersePlan
	// TrialLo and TrialHi restrict the search to the half-open range
	// [TrialLo, TrialHi) of DMs — the sharding hook of the coordinator +
	// worker fleet (internal/fleet, DESIGN.md §9). The full grid must still
	// be supplied: dedispersion-plan resolution (the subband nominal grid
	// and trial→nominal assignment) always derives from the whole grid, so
	// a trial searched under any restriction produces bit-identical events
	// to the same trial in an unrestricted run, at any BlockSamples. Both
	// zero searches every trial.
	TrialLo, TrialHi int
	// BlockSamples is the gulp size of the search (DESIGN.md §7): the
	// observation is consumed as gulps of this many samples with the
	// dispersion overlap carried between them, so memory is bounded by the
	// gulp whatever the observation length. It must cover the largest
	// trial's sweep. The emitted events are record-for-record identical for
	// any block size and any worker count, provided NormWindow is explicit.
	// Zero searches the observation as one gulp: every trial's whole series
	// is normalised and matched-filtered at once, with no carries.
	BlockSamples int
	// Staging, when non-nil, carries the channel-major staging of a whole
	// raw observation from one one-gulp search to the next search of the
	// same bytes (Staging; DESIGN.md §9.1). It never changes an event: a
	// handle that holds another observation's staging, or any gulped or
	// decoded search, stages as if it were nil.
	Staging *Staging
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
// tasks. One mutex across workers is fine here: it is taken a few times
// per trial and block, orders of magnitude coarser than the kernels they
// time. A nil clock is a no-op so uninstrumented constructions stay valid.
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
// window sums, plus — on a gulped search, where it is sized to one
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
// series and the downstream kernel scratch, plus the staging tile a raw
// block decodes into (stageRows × NChans values, 256 KiB at 256 channels).
// Pooling them makes steady-state search allocation-free per trial, which
// is what lets the DM fan-out scale with workers instead of with the
// allocator.
type trialBuffers struct {
	series []float64
	tile   []float32
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

// Search runs the full frontend over one filterbank and returns every
// event at once: it is a collector over SearchFilterbank, the one search
// driver, so it dedisperses (two-stage subband by default, one-stage brute
// force when forced or cheaper — see Config.Plan and DESIGN.md §6),
// normalises (Normalize) and matched-filters (BoxcarDetect) every trial DM
// exactly as the driver does, with the events in time order (ties by DM).
// Event times are the boxcar-centre arrival times at the highest observed
// frequency, in seconds from the start of the observation; Downfact
// carries the matched boxcar width. The result is record-for-record
// identical for any worker count and, with NormWindow explicit, any
// BlockSamples.
//
// Trials whose dispersion sweep exceeds the observation are skipped (a
// short observation simply cannot constrain them).
func Search(ctx context.Context, fb *Filterbank, cfg Config) ([]spe.SPE, Stats, error) {
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

// resolveSearch validates the search parameters — the trial grid and
// range, the width ladder, the threshold — and resolves the dedispersion
// plan.
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
// of cfg.DMs a search executes (the whole grid by default).
func trialRange(cfg Config) (lo, hi int) {
	if cfg.TrialLo == 0 && cfg.TrialHi == 0 {
		return 0, len(cfg.DMs)
	}
	return cfg.TrialLo, cfg.TrialHi
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
