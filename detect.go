package drapid

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"drapid/internal/core"
	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/pipeline"
	"drapid/internal/sift"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// InjectedPulse is one dispersed pulse of ground truth to embed in a
// synthetic observation (SynthSpec.Pulses): arrival time at the highest
// observed frequency, true DM, intrinsic width, and the matched-filter SNR
// an ideal search recovers. It aliases the frontend's type so SynthSpec
// converts to the internal configuration as one struct conversion — the
// compiler, not a hand-maintained copy, keeps the field sets in lock step.
type InjectedPulse = sps.InjectedPulse

// RFIBurst is one broadband zero-DM interference burst to embed in a
// synthetic observation (SynthSpec.RFI); Amp is per channel, in noise
// sigmas. Aliased like InjectedPulse.
type RFIBurst = sps.RFIBurst

// PulseTrain is a repeating source to embed in a synthetic observation
// (SynthSpec.Trains): Count pulses at one DM spaced PeriodSec apart —
// ground truth for the repeat-source sifting stage. Aliased like
// InjectedPulse.
type PulseTrain = sps.PulseTrain

// SynthSpec describes a synthetic filterbank observation for a DetectJob:
// receiver geometry, Gaussian noise, and injected signals with known
// ground truth. Zero geometry fields take the documented defaults (128
// channels of 2 MHz below 1500 MHz, 16384 × 256 µs samples, unit noise).
type SynthSpec struct {
	NChans     int     `json:"nchans,omitempty"`
	NSamples   int     `json:"nsamples,omitempty"`
	TsampSec   float64 `json:"tsamp_sec,omitempty"`
	Fch1MHz    float64 `json:"fch1_mhz,omitempty"`
	FoffMHz    float64 `json:"foff_mhz,omitempty"`
	TStartMJD  float64 `json:"tstart_mjd,omitempty"`
	SourceName string  `json:"source_name,omitempty"`
	// NoiseSigma is the per-channel noise level (0 = 1).
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// Seed makes the observation deterministic.
	Seed   int64           `json:"seed,omitempty"`
	Pulses []InjectedPulse `json:"pulses,omitzero"`
	RFI    []RFIBurst      `json:"rfi,omitzero"`
	Trains []PulseTrain    `json:"trains,omitzero"`
}

// internal converts the public spec to the frontend's configuration. The
// direct struct conversion only compiles while the two field sets are
// identical, so adding a field to one side without the other is a build
// error, not a silent drop (TestSynthSpecParity pins the shape as well).
func (s SynthSpec) internal() sps.SynthConfig {
	return sps.SynthConfig(s)
}

// GenerateFilterbank renders a synthetic observation to SIGPROC
// filterbank bytes: ground-truthed input for DetectJob.Filterbank, for
// files on disk (cmd/spgen -filterbank), or for HTTP detect clients.
func GenerateFilterbank(spec SynthSpec) ([]byte, error) {
	fb, err := sps.Generate(spec.internal())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sps.Write(&buf, fb); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DetectJob specifies one end-to-end single-pulse search: raw
// time–frequency data in (a SIGPROC filterbank, or a synthetic
// observation), classified-ready candidates out. The frontend
// (internal/sps) dedisperses the data over the trial-DM grid on the
// engine's shared worker pool, matched-filters every trial, clusters the
// detections with the stage-2 DBSCAN, and identifies every cluster with the
// per-cluster search an IdentifyJob's distributed pipeline runs
// (pipeline.Searcher) — on typed events, in memory, without the simulated
// HDFS and Spark layer — so Results() streams the same Candidate records,
// ready for Classifier.Predict.
//
// A DetectJob's JSON form is the job's one description: it is the
// POST /v1/detect body, the journal entry a restarted engine replays, and
// the names of the stream endpoint's query knobs (DESIGN.md §5.4, §9.2).
// The two fields that only make sense in-process, FilterbankStream and
// ResultBuffer, have none. Slices and Sift are omitzero rather than
// omitempty so an empty-but-present value survives a round trip.
type DetectJob struct {
	// Filterbank is a raw SIGPROC filterbank observation (for example
	// written by cmd/spgen -filterbank). Exactly one of Filterbank,
	// Synth and FilterbankStream must be set.
	Filterbank []byte `json:"filterbank,omitzero"`
	// Synth generates a synthetic observation in place of Filterbank.
	Synth *SynthSpec `json:"synth,omitempty"`
	// FilterbankStream supplies the observation as a raw SIGPROC byte
	// stream consumed incrementally — the live-ingest input: candidates
	// flow while the stream is still arriving and memory stays bounded by
	// the block size regardless of observation length. The job owns the
	// reader until it terminates. Implies block streaming: a zero
	// BlockSamples takes DefaultBlockSamples.
	FilterbankStream io.Reader `json:"-"`
	// Key identifies the observation in downstream records, in the
	// canonical "dataset:mjd:ra:dec:beam" form, with a dataset of letters,
	// digits and +-._ only; empty derives one from the filterbank header
	// (source name and start MJD).
	Key string `json:"key,omitempty"`
	// DMMin, DMMax and DMStep define the trial dispersion-measure grid in
	// pc cm⁻³, of at most 2²⁰ trials. All-zero takes the default grid (0
	// to 300, step 1).
	DMMin  float64 `json:"dm_min,omitempty"`
	DMMax  float64 `json:"dm_max,omitempty"`
	DMStep float64 `json:"dm_step,omitempty"`
	// Widths is the boxcar matched-filter ladder in samples; empty takes
	// the octave ladder 1…64.
	Widths []int `json:"widths,omitzero"`
	// Threshold is the detection SNR cut; zero takes 6.
	Threshold float64 `json:"threshold,omitempty"`
	// NormWindow is the running mean/variance normalisation window in
	// samples, >= 0. Zero normalises each trial by its global moments when
	// the observation is searched in one gulp, and takes the frontend's
	// DefaultNormWindow when it is gulped (BlockSamples or
	// FilterbankStream), since global moments need the whole series.
	NormWindow int `json:"norm_window,omitempty"`
	// NoZeroDM disables the zero-DM broadband-RFI filter
	// (sps.ZeroDMFilter), which detect jobs otherwise apply before
	// dedispersion. Disable it only when genuinely zero-DM signals matter
	// more than RFI rejection.
	NoZeroDM bool `json:"no_zerodm,omitempty"`
	// Plan selects the dedispersion strategy: "" or "auto" (the default)
	// picks two-stage subband dedispersion with an auto-chosen subband
	// count whenever its cost model beats brute force; "subband" and
	// "brute" force a strategy. Result.Plan reports what actually ran.
	// See DESIGN.md §6.
	Plan string `json:"plan,omitempty"`
	// BlockSamples is the gulp size of the search (DESIGN.md §7): the
	// observation is consumed in gulps of this many samples with the
	// dispersion overlap carried between them, in memory bounded by the
	// gulp, events fold in deterministic order as blocks complete, and
	// candidates are clustered and identified segment by segment —
	// streamed out while later blocks are still being searched — instead
	// of after the full search. BlockSamples must cover the largest
	// trial's dispersion sweep (undersized blocks fail with a clear
	// error). Zero searches an ingested observation as one gulp, clustered
	// as a whole; a FilterbankStream takes DefaultBlockSamples instead.
	BlockSamples int `json:"block_samples,omitempty"`
	// Shards splits the search across the engine's worker fleet (DESIGN.md
	// §9): the job is planned into this many shards, dispatched over the
	// workers attached with WithFleetWorkers/WithRemoteWorkers, and the
	// per-shard event streams are merged back so the candidate output is
	// record-for-record what an unsharded run produces. Shards > 1
	// requires a fleet and is incompatible with the streaming inputs
	// (FilterbankStream, BlockSamples); zero or one runs unsharded.
	Shards int `json:"shards,omitempty"`
	// ShardBy names the shard axis. The one axis is ShardByDM, which ""
	// also means.
	ShardBy string `json:"shard_by,omitempty"`
	// ResultBuffer bounds consumer lag exactly as for IdentifyJob. It is
	// in-process only: a job with it set stalls until someone reads
	// Results, and a detached HTTP job or a replayed journal entry has no
	// such reader.
	ResultBuffer int `json:"-"`
	// Sift configures the post-classification sifting stage: group ranking
	// (Result.TopCandidates, Job.Top) and repeat-source cross-matching
	// (Result.Sources). The zero value runs sifting with defaults; set
	// Sift.Disable to skip it. See DESIGN.md §8.
	Sift Sift `json:"sift,omitzero"`
}

// DefaultBlockSamples is the gulp size a FilterbankStream detect job uses
// when BlockSamples is zero: 65536 samples (a few tens of MB of gulp for
// typical channel counts, and comfortably above any realistic dispersion
// sweep at survey time resolutions).
const DefaultBlockSamples = 1 << 16

// detectSetup is a validated DetectJob resolved, once at submission,
// into what it runs on.
type detectSetup struct {
	grid    *dmgrid.Grid
	catalog []sift.CatalogEntry
	// search is the search knobs as fleet shards carry them.
	search fleet.SearchSpec
}

// validate checks the spec and resolves it: the trial grid, the parsed
// sift catalog and the search configuration.
func (spec DetectJob) validate() (*detectSetup, error) {
	inputs := 0
	if len(spec.Filterbank) > 0 {
		inputs++
	}
	if spec.Synth != nil {
		inputs++
	}
	if spec.FilterbankStream != nil {
		inputs++
	}
	if inputs == 0 {
		return nil, fmt.Errorf("drapid: DetectJob needs Filterbank bytes, a Synth spec, or a FilterbankStream")
	}
	if inputs > 1 {
		return nil, fmt.Errorf("drapid: DetectJob takes exactly one of Filterbank, Synth and FilterbankStream")
	}
	if spec.BlockSamples < 0 {
		return nil, fmt.Errorf("drapid: BlockSamples must be >= 0, got %d", spec.BlockSamples)
	}
	if spec.NormWindow < 0 {
		return nil, fmt.Errorf("drapid: NormWindow must be >= 0, got %d", spec.NormWindow)
	}
	lo, hi, step := spec.DMMin, spec.DMMax, spec.DMStep
	if lo == 0 && hi == 0 && step == 0 {
		lo, hi, step = 0, 300, 1
	}
	if step <= 0 {
		return nil, fmt.Errorf("drapid: DM step %g must be > 0", step)
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("drapid: bad DM range [%g, %g]", lo, hi)
	}
	if n := gridTrials(lo, hi, step); !(n <= sps.MaxTrials) {
		return nil, fmt.Errorf("drapid: DM grid [%g, %g] step %g has %g trials, more than %d", lo, hi, step, n, sps.MaxTrials)
	}
	for _, w := range spec.Widths {
		if w < 1 {
			return nil, fmt.Errorf("drapid: boxcar width %d must be >= 1", w)
		}
	}
	if !(spec.Threshold >= 0) {
		return nil, fmt.Errorf("drapid: threshold %g must be >= 0", spec.Threshold)
	}
	if spec.ResultBuffer < 0 {
		return nil, fmt.Errorf("drapid: ResultBuffer must be >= 0, got %d", spec.ResultBuffer)
	}
	if spec.Key != "" {
		k, err := spe.ParseKey(spec.Key)
		if err != nil {
			return nil, fmt.Errorf("drapid: bad observation key %q (want dataset:mjd:ra:dec:beam)", spec.Key)
		}
		if strings.IndexFunc(k.Dataset, func(r rune) bool { return !keyRune(r) }) >= 0 {
			return nil, fmt.Errorf("drapid: observation key %q: dataset %q may hold only letters, digits and +-._", spec.Key, k.Dataset)
		}
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("drapid: Shards must be >= 0, got %d", spec.Shards)
	}
	if spec.ShardBy != "" && spec.ShardBy != ShardByDM {
		return nil, fmt.Errorf("drapid: unknown ShardBy %q (want %q)", spec.ShardBy, ShardByDM)
	}
	if spec.Shards > 1 && (spec.FilterbankStream != nil || spec.BlockSamples > 0) {
		return nil, fmt.Errorf("drapid: sharding (Shards > 1) is incompatible with streaming inputs (FilterbankStream/BlockSamples)")
	}
	catalog, err := spec.Sift.validate()
	if err != nil {
		return nil, err
	}
	grid, err := detectGrid(lo, hi, step)
	if err != nil {
		return nil, fmt.Errorf("drapid: building DM grid: %w", err)
	}
	search := fleet.SearchSpec{
		Widths:     spec.Widths,
		Threshold:  spec.Threshold,
		NormWindow: spec.NormWindow,
		ZeroDM:     !spec.NoZeroDM,
		Plan:       spec.Plan,
	}
	if _, err := sps.ParsePlanKind(search.Plan); err != nil {
		return nil, fmt.Errorf("drapid: %w", err)
	}
	return &detectSetup{grid: grid, catalog: catalog, search: search}, nil
}

// SubmitDetect registers and starts a detection job, returning its handle
// immediately (the same streaming Job handle Submit returns: Results,
// Progress, Wait, Cancel all apply). The frontend search runs on the
// engine's worker pool under the shared limiter, so detect jobs share the
// host fairly with concurrent identify jobs.
func (e *Engine) SubmitDetect(ctx context.Context, spec DetectJob) (*Job, error) {
	return e.submitDetect(ctx, spec, "")
}

// submitDetect is SubmitDetect plus the journal-replay entry point: a
// non-empty forceID resubmits a recovered job under its original ID.
func (e *Engine) submitDetect(ctx context.Context, spec DetectJob, forceID string) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	setup, err := spec.validate()
	if err != nil {
		return nil, err
	}
	if spec.Shards > 1 && e.coord == nil {
		return nil, fmt.Errorf("drapid: Shards = %d but the engine has no fleet (use WithFleetWorkers or WithRemoteWorkers)", spec.Shards)
	}
	id := forceID
	if id == "" {
		id, err = e.allocateID()
	} else {
		err = e.claimID(id)
	}
	if err != nil {
		return nil, err
	}
	j := e.newJobHandle(ctx, id, "detect", spec.ResultBuffer)
	if !spec.Sift.Disable {
		top := spec.Sift.Top
		if top == 0 {
			top = DefaultTopCandidates
		}
		j.sift = &jobSift{params: spec.Sift.params(), catalog: setup.catalog, top: top}
	}
	if err := e.register(j); err != nil {
		return nil, err
	}
	if e.journal != nil && spec.journalable() {
		if err := e.journalPut(j, spec); err != nil {
			e.mu.Lock()
			delete(e.jobs, id)
			for i, oid := range e.order {
				if oid == id {
					e.order = append(e.order[:i], e.order[i+1:]...)
					break
				}
			}
			e.mu.Unlock()
			j.cancel(err)
			return nil, err
		}
	}
	go j.run(e.detectWork(j, spec, setup))
	return j, nil
}

// detectGrid builds the one-stage trial plan holding exactly the DMs
// lo, lo+step, … that do not exceed hi: sizing the stage bound from the
// floor'd trial count keeps a step that does not divide the range from
// overshooting the caller's DMMax.
func detectGrid(lo, hi, step float64) (*dmgrid.Grid, error) {
	return dmgrid.New([]dmgrid.Stage{{Lo: lo, Hi: lo + gridTrials(lo, hi, step)*step, Step: step}})
}

// gridTrials counts the trials lo, lo+step, … that do not exceed hi.
func gridTrials(lo, hi, step float64) float64 {
	return math.Floor((hi-lo)/step+1e-9) + 1
}

// eventSource is where a detect job's events come from, plus what the one
// driver (detectWork) needs to know about it: the observation header (for
// the key and the features) and the segmenter's flush policy.
type eventSource struct {
	hdr    sps.Header
	single bool
	// run searches, feeding time-ordered event batches to emit.
	run func(emit func([]spe.SPE) error) (sps.Stats, error)
	// fleet summarises a sharded run once run returns.
	fleet *FleetProgress
}

// detectWork is the detect job's one work function, whatever the source:
// the spec's event source (detectSource) feeds the segmenter, which
// clusters and identifies in memory segment by segment, then the final
// sift view. DetectSeconds spans the whole work function on every path,
// and the stage walls partition it.
func (e *Engine) detectWork(j *Job, spec DetectJob, setup *detectSetup) func() (Result, error) {
	return func() (Result, error) {
		start := time.Now()
		grid := setup.grid
		src, err := e.detectSource(j, spec, setup)
		if err != nil {
			return Result{}, err
		}
		key, err := observationKey(spec.Key, src.hdr)
		if err != nil {
			return Result{}, err
		}
		seg := &segmenter{
			j: j, grid: grid, key: key,
			search: pipeline.Searcher{
				Key:    key.String(),
				Params: detectSearchParams(grid),
				Feat:   detectFeatures(grid, src.hdr),
			},
			single: src.single,
		}
		stats, err := src.run(seg.onEvents)
		if err != nil {
			return Result{}, fmt.Errorf("drapid: single-pulse search: %w", err)
		}
		if err := seg.finish(); err != nil {
			return Result{}, err
		}
		res := seg.total
		res.Detections = stats.Events
		res.Plan = stats.Plan
		res.Fleet = src.fleet
		if j.sift != nil {
			sift := j.trace.Span("sift")
			view := j.Top(0)
			sift.SetRecords(0, int64(len(view.Top)))
			sift.End()
			res.TopCandidates, res.Sources = view.Top, view.Sources
		}
		res.DetectSeconds = time.Since(start).Seconds()
		applyDetectStages(j.trace, stats, res.DetectSeconds)
		return res, nil
	}
}

// detectSource resolves the spec's event source. A sharded job runs on the
// fleet (fleetSource). A FilterbankStream is searched gulp by gulp as it
// arrives, and BlockSamples gulps an ingested observation the same way;
// both flush at quiet gaps. Otherwise the observation is searched as one
// gulp whose events form a single segment, as the fleet's DM barrier does.
func (e *Engine) detectSource(j *Job, spec DetectJob, setup *detectSetup) (*eventSource, error) {
	if spec.Shards > 1 {
		return e.fleetSource(j, spec, setup)
	}
	cfg, err := setup.search.Config(setup.grid.Trials(), e.exec)
	if err != nil {
		return nil, fmt.Errorf("drapid: %w", err)
	}
	cfg.BlockSamples = spec.BlockSamples
	if spec.FilterbankStream != nil {
		if cfg.BlockSamples == 0 {
			cfg.BlockSamples = DefaultBlockSamples
		}
		rd := bufio.NewReaderSize(spec.FilterbankStream, 1<<16)
		hdr, err := sps.ReadHeader(rd)
		if err != nil {
			return nil, fmt.Errorf("drapid: reading filterbank header: %w", err)
		}
		return &eventSource{hdr: hdr, run: func(emit func([]spe.SPE) error) (sps.Stats, error) {
			return sps.SearchBlocks(j.ctx, hdr, rd, cfg, emit)
		}}, nil
	}
	// An ingested observation stays encoded (fb holds only its header): the
	// search decodes it tile by tile as it stages it.
	ingest := j.trace.Span(sps.StageIngest)
	fb := &sps.Filterbank{}
	var data []byte
	if spec.Synth != nil {
		fb, err = sps.Generate(spec.Synth.internal())
	} else {
		fb.Header, data, err = sps.ParseRaw(spec.Filterbank)
	}
	if err != nil {
		ingest.End()
		return nil, fmt.Errorf("drapid: reading filterbank: %w", err)
	}
	ingest.SetRecords(0, int64(fb.NSamples))
	ingest.AddBytes(int64(len(data) + 4*len(fb.Data)))
	ingest.End()
	return &eventSource{hdr: fb.Header, single: cfg.BlockSamples == 0, run: func(emit func([]spe.SPE) error) (sps.Stats, error) {
		if spec.Synth != nil {
			return sps.SearchFilterbank(j.ctx, fb, cfg, emit)
		}
		return sps.SearchRaw(j.ctx, fb.Header, data, cfg, emit)
	}}, nil
}

// Streaming detect segmentation (DESIGN.md §7.3). Events arrive from the
// block search in global time order; a segment is cut wherever the stream
// goes quiet for longer than the DBSCAN linkage reach (EpsTime +
// MergeTime, with margin), so no cluster can span a segment boundary and
// per-segment clustering matches what the batch pass would have built for
// the same events. A pathological stream with no quiet gap (an RFI storm)
// is force-flushed at detectStreamMaxEvents — the only case where
// streaming may split a cluster that batch would keep whole.
const (
	detectStreamGapSec    = 0.25
	detectStreamMaxEvents = 1 << 14
)

// segmenter accumulates the source's events, cuts them into
// clustering-independent segments, and clusters and identifies each one
// in memory, aggregating the per-segment results.
type segmenter struct {
	j      *Job
	grid   *dmgrid.Grid
	key    spe.Key
	search pipeline.Searcher

	// single defers the one and only flush to finish: the whole event set
	// is clustered at once, so cross-cluster features computed over "all
	// clusters of the observation" (ClusterRank) are observation-global.
	// The one-gulp search and the fleet's DM-sharded barrier merge use this —
	// each delivers every event at once, so incremental flushing buys
	// nothing and would re-rank per segment.
	single bool

	pending []spe.SPE
	seg     int
	// clusters counts clusters flushed in earlier segments: the id offset
	// that keeps per-segment cluster numbering identical to what one batch
	// pass over the same events would assign (segments are cut at quiet
	// gaps wider than the DBSCAN linkage reach, and batch clustering
	// discovers clusters in time order, so segment-local ids continue the
	// batch numbering exactly).
	clusters int
	total    Result
}

// onEvents is the search emit callback: fold in one time-ordered batch,
// then flush everything behind the latest quiet gap.
func (s *segmenter) onEvents(events []spe.SPE) error {
	if err := s.j.ctx.Err(); err != nil {
		return context.Cause(s.j.ctx)
	}
	s.j.addDetections(len(events))
	s.pending = append(s.pending, events...)
	if s.single {
		return nil
	}
	cut := 0
	for i := 1; i < len(s.pending); i++ {
		if s.pending[i].Time-s.pending[i-1].Time > detectStreamGapSec {
			cut = i
		}
	}
	if cut == 0 && len(s.pending) >= detectStreamMaxEvents {
		cut = len(s.pending)
	}
	if cut == 0 {
		return nil // no quiet gap yet: keep accumulating (flush(0) is finish's empty-job case)
	}
	return s.flush(cut)
}

// finish flushes whatever remains; a job that saw no events at all still
// runs one empty segment so every job reports at least one classify call.
func (s *segmenter) finish() error {
	if len(s.pending) > 0 || s.seg == 0 {
		return s.flush(len(s.pending))
	}
	return nil
}

// flush clusters and identifies pending[:n] as one segment, in memory:
// the typed search rounds the events as an IdentifyJob's CSV records do,
// so the records are the ones that path emits for the same events.
func (s *segmenter) flush(n int) error {
	if n == 0 && s.seg > 0 {
		return nil
	}
	if err := s.j.ctx.Err(); err != nil {
		return context.Cause(s.j.ctx)
	}
	s.seg++
	events := s.pending[:n]
	cluster := s.j.trace.Span("cluster")
	res := dbscan.Cluster(events, s.grid, s.key, dbscan.DefaultParams())
	cluster.SetRecords(int64(n), int64(len(res.Clusters)))
	cluster.End()
	base := s.clusters
	s.clusters += len(res.Clusters)
	if s.j.sift != nil {
		sift := s.j.trace.Span("sift")
		s.j.addSiftGroups(siftGroups(s.key, events, res, base, s.j.sift.params))
		sift.End()
	}
	classify := s.j.trace.Span("classify")
	recs := s.search.SearchEvents(nil, events, res.Clusters)
	// Candidates carry batch-identical cluster ids: shift the segment-local
	// ids by the earlier segments' cluster count.
	for i := range recs {
		recs[i].ClusterID += base
	}
	s.j.emit(recs)
	classify.SetRecords(0, int64(len(recs)))
	classify.End()
	s.pending = append(s.pending[:0], s.pending[n:]...)
	s.total.Records += len(recs)
	return nil
}

// detectSearchParams adapts Algorithm 1's slope threshold to the detect
// grid. The paper's M = 0.5 (SNR per pc cm⁻³) was tuned on survey plans
// whose spacing is ≲0.25 at the DMs that matter, where a real pulse's
// SNR-vs-DM climb is steep in DM units. A brute-force detect grid is much
// coarser (default step 1), which flattens the same climb proportionally —
// under the survey threshold every bin of a genuine pulse reads "flat" and
// nothing is ever identified. Scaling M by spacing keeps the threshold
// constant in SNR-per-trial terms, capped at the paper's value for fine
// grids.
func detectSearchParams(grid *dmgrid.Grid) core.Params {
	p := core.DefaultParams()
	step := grid.SpacingAt(grid.Min())
	if step > 0.25 {
		p.SlopeM = core.DefaultSlopeM * 0.25 / step
	}
	return p
}

// detectFeatures builds the feature-extraction config from a header.
func detectFeatures(grid *dmgrid.Grid, hdr sps.Header) features.Config {
	return features.Config{
		Grid:    grid,
		BandMHz: hdr.BandwidthMHz(),
		FreqGHz: hdr.CenterFreqGHz(),
	}
}

// keyRune reports whether r belongs to the dataset alphabet of an
// observation key: the runes that keep a key one CSV field and one
// colon-joined component, so a key means the same to the typed search as
// to the CSV records an IdentifyJob reads.
func keyRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
		r == '+' || r == '-' || r == '.' || r == '_'
}

// observationKey resolves the job's observation key: the caller's, or one
// derived from the filterbank header. Source names are sanitised into the
// key alphabet (keyRune), which validate holds explicit keys to.
func observationKey(explicit string, hdr sps.Header) (spe.Key, error) {
	if explicit != "" {
		return spe.ParseKey(explicit)
	}
	name := strings.Map(func(r rune) rune {
		if keyRune(r) {
			return r
		}
		return '_'
	}, hdr.SourceName)
	if name == "" {
		name = "DETECT"
	}
	return spe.Key{Dataset: name, MJD: hdr.TStartMJD}, nil
}
