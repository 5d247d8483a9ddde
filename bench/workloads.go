package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"

	"drapid"
	"drapid/internal/core"
	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/obs"
	"drapid/internal/pipeline"
	"drapid/internal/rapidmt"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
	"drapid/internal/synth"
)

// tsampSec is the sampling interval of every synthetic filterbank.
const tsampSec = 256e-6

// skySeed fixes identify-survey's pulsar population.
const skySeed = 2018

// workload is one fixed set of inputs and the job that consumes them.
// Names are fixed: later issues cite them. The sizes are those of
// README.md divided by scale (1 for a real run, 16 in bench_test.go).
type workload struct {
	name string
	// warmup iterations run before the timed pass and are discarded.
	warmup int
	setup  func(seed int64, scale int, tmp string) (*instance, error)
}

var workloads = []workload{
	{"batch-wide", 2, setupBatchWide},
	{"stream-long", 1, setupStreamLong},
	{"fleet-shards", 2, setupFleetShards},
	{"identify-survey", 2, setupIdentifySurvey},
}

// instance is what a workload's setup builds: inputs, a way to make
// engines over them, the job, its reference and its ground truth.
type instance struct {
	// obsSeconds is the observation time the job covers, for rtf.
	obsSeconds float64
	// sizes describes the inputs in the results header.
	sizes map[string]any
	// newEngine builds an engine with the given pool width and a fresh
	// metrics registry, attached to whatever workers the workload owns.
	newEngine func(workers int) (*drapid.Engine, error)
	// prepare runs before every submit, outside the timed window.
	prepare func() error
	// submit starts the workload's job on e.
	submit func(e *drapid.Engine) (*drapid.Job, error)
	// reference produces the expected outcome by a different path than
	// submit, and same reports how an iteration's outcome departs from it.
	reference func(e *drapid.Engine) (outcome, error)
	same      func(ref, got outcome) error
	// recall scores candidates against the injected ground truth and
	// describes what was missed; below minRecall the run is incorrect.
	recall    func([]drapid.Candidate) (float64, []string)
	minRecall float64
	// detectPhaseOnly marks a batch detect job, whose DetectSeconds stops
	// at the end of the search (see stageSumRatio).
	detectPhaseOnly bool
	// path names the layer spans that make up the job's blocking steps;
	// engine.self_s is the job time they do not account for.
	path []string
	// layers is the input of the traced layer pass.
	layers layerInput
	close  func()
}

// outcome is what an output check compares.
type outcome struct {
	// digest is the SHA-256 of the job's sorted Candidate.CSV() lines.
	digest     string
	records    int
	detections int
	top        []drapid.TopCandidate
	sources    []drapid.Source
}

// sameRecords demands identical candidate records: the guarantee for
// worker-count invariance, DM sharding and D-RAPID ≡ RAPID-MT.
func sameRecords(ref, got outcome) error {
	if ref.digest != got.digest {
		return fmt.Errorf("candidate digest %.12s (%d records) differs from reference %.12s (%d records)",
			got.digest, got.records, ref.digest, ref.records)
	}
	return nil
}

// sameRanked demands equal detections and ranked views: what streaming
// guarantees against batch (DESIGN §8.4 — per-segment ClusterRank makes
// full-record equality a non-guarantee there, so it is not asserted).
func sameRanked(ref, got outcome) error {
	switch {
	case ref.detections != got.detections:
		return fmt.Errorf("detections %d, reference %d", got.detections, ref.detections)
	case !reflect.DeepEqual(ref.top, got.top):
		return fmt.Errorf("TopCandidates differ from reference")
	case !reflect.DeepEqual(ref.sources, got.sources):
		return fmt.Errorf("Sources differ from reference")
	}
	return nil
}

func plainEngine(workers int) (*drapid.Engine, error) {
	return drapid.New(drapid.WithWorkers(workers), drapid.WithMetrics(drapid.NewMetricsRegistry()))
}

// observation describes a synthetic filterbank: a 300 MHz band below
// 1500 MHz, one pulse near the middle of each of equal time slots (so
// that which gulp a pulse falls in does not depend on the seed) with DMs
// stratified over [dmLo, dmHi] in shuffled order, and RFI bursts on slot
// boundaries.
type observation struct {
	name             string
	nchans, nsamples int
	dmLo, dmHi       float64
	pulses, rfi      int
}

func (o observation) spec(seed int64) drapid.SynthSpec {
	rng := rand.New(rand.NewSource(seed))
	s := drapid.SynthSpec{
		NChans: o.nchans, NSamples: o.nsamples, TsampSec: tsampSec,
		Fch1MHz: 1500, FoffMHz: -300 / float64(o.nchans),
		SourceName: o.name, TStartMJD: 58000, Seed: seed,
	}
	dur := float64(o.nsamples) * tsampSec
	hdr := sps.SynthConfig(s).Header()
	sweep := sps.DelaySeconds(o.dmHi, hdr.FreqMHz(hdr.NChans-1), hdr.FTopMHz())
	lead := math.Min(0.5, dur/8)
	slot := (dur - 2*lead - sweep) / float64(o.pulses)
	for i, k := range rng.Perm(o.pulses) {
		s.Pulses = append(s.Pulses, drapid.InjectedPulse{
			TimeSec: lead + (float64(i)+0.4+0.2*rng.Float64())*slot,
			DM:      o.dmLo + (float64(k)+rng.Float64())*(o.dmHi-o.dmLo)/float64(o.pulses),
			WidthMs: 2 + 3*rng.Float64(),
			SNR:     14 + 11*rng.Float64(),
		})
	}
	for i := 0; i < o.rfi; i++ {
		s.RFI = append(s.RFI, drapid.RFIBurst{TimeSec: lead + float64(2*i+1)*slot, WidthMs: 4, Amp: 3})
	}
	return s
}

// detectRecall applies TestDetectJobRecall's rule: a pulse is recovered
// when a candidate's SNRPeakDM lies within 6 pc cm⁻³ of its DM and its
// centre falls inside [StartTime − 50 ms, StopTime + 50 ms].
func detectRecall(pulses []drapid.InjectedPulse) func([]drapid.Candidate) (float64, []string) {
	peakDM, startT, stopT := featureIndex("SNRPeakDM"), featureIndex("StartTime"), featureIndex("StopTime")
	return func(cands []drapid.Candidate) (float64, []string) {
		var missed []string
	pulse:
		for _, p := range pulses {
			center := p.TimeSec + p.WidthMs/2000
			for _, c := range cands {
				if math.Abs(c.Features[peakDM]-p.DM) <= 6 &&
					c.Features[startT] <= center+0.05 && c.Features[stopT] >= center-0.05 {
					continue pulse
				}
			}
			missed = append(missed, fmt.Sprintf("%+v", p))
		}
		return 1 - float64(len(missed))/float64(len(pulses)), missed
	}
}

func featureIndex(name string) int {
	for i, n := range drapid.FeatureNames() {
		if n == name {
			return i
		}
	}
	panic("bench: no feature named " + name)
}

// identifyPath names the layer spans between a detect job's events and
// its candidates.
var identifyPath = []string{"pipeline.Prepare", "pipeline.Upload", "pipeline.RunDRAPID", "sift.Build", "sift.Sources"}

// detectInstance fills in what the three detect workloads share.
func detectInstance(o observation, spec drapid.SynthSpec, raw []byte, job drapid.DetectJob) *instance {
	dmMax := job.DMMax
	if dmMax == 0 {
		dmMax = 300
	}
	return &instance{
		obsSeconds: float64(o.nsamples) * tsampSec,
		sizes: map[string]any{
			"nchans": o.nchans, "nsamples": o.nsamples, "tsamp_us": tsampSec * 1e6,
			"filterbank_mib": float64(len(raw)) / (1 << 20), "dm_trials": int(dmMax) + 1,
			"pulses": len(spec.Pulses), "rfi_bursts": len(spec.RFI),
		},
		newEngine: plainEngine,
		recall:    detectRecall(spec.Pulses),
		minRecall: 0.9, // the gate of TestDetectJobRecall
		same:      sameRecords,
		layers:    layerInput{raw: raw, dmMax: dmMax, normWindow: job.NormWindow, block: job.BlockSamples},
		close:     func() {},
	}
}

// batch-wide: a wide band against many trials makes batch dedispersion
// the job. Global normalisation, zero-DM on, plan auto: the engine's
// defaults. Reference: the same job on a 1-worker engine.
func setupBatchWide(seed int64, scale int, _ string) (*instance, error) {
	o := observation{name: "BATCHWIDE", nchans: 256, nsamples: 65536 / scale, dmLo: 20, dmHi: 280, pulses: max(2, 8/scale), rfi: max(1, 4/scale)}
	spec := o.spec(seed)
	raw, err := drapid.GenerateFilterbank(spec)
	if err != nil {
		return nil, err
	}
	job := drapid.DetectJob{Filterbank: raw}
	in := detectInstance(o, spec, raw, job)
	in.submit = func(e *drapid.Engine) (*drapid.Job, error) { return e.SubmitDetect(context.Background(), job) }
	in.reference = func(*drapid.Engine) (outcome, error) {
		e1, err := plainEngine(1)
		if err != nil {
			return outcome{}, err
		}
		defer e1.Close()
		it, err := in.runOnce(e1, false)
		return it.out, err
	}
	in.detectPhaseOnly = true
	in.path = append([]string{"sps.Read", "sps.Search"}, identifyPath...)
	return in, nil
}

// stream-long: the same sps layer used the other way — narrow, long,
// read from a file in gulps, as `drapid -detect -block` does. Reference:
// a batch job over the same bytes with the same NormWindow.
func setupStreamLong(seed int64, scale int, tmp string) (*instance, error) {
	o := observation{name: "STREAMLONG", nchans: 64, nsamples: 131072 / scale, dmLo: 10, dmHi: 140, pulses: max(2, 16/scale)}
	spec := o.spec(seed)
	raw, err := drapid.GenerateFilterbank(spec)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(tmp, "stream-long.fil")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	job := drapid.DetectJob{DMMax: 150, DMStep: 1, BlockSamples: 16384 / scale, NormWindow: 2048}
	in := detectInstance(o, spec, raw, job)
	var file *os.File
	in.prepare = func() (err error) {
		if file != nil {
			file.Close() // the previous job's reader
		}
		file, err = os.Open(path)
		return err
	}
	in.submit = func(e *drapid.Engine) (*drapid.Job, error) {
		j := job
		j.FilterbankStream = file
		return e.SubmitDetect(context.Background(), j)
	}
	in.reference = func(e *drapid.Engine) (outcome, error) {
		batch := job
		batch.BlockSamples, batch.Filterbank = 0, raw
		it, err := runJob(e, func() (*drapid.Job, error) { return e.SubmitDetect(context.Background(), batch) }, false)
		return it.out, err
	}
	in.same = sameRanked
	in.path = append([]string{"sps.SearchStream"}, identifyPath...)
	in.close = func() {
		if file != nil {
			file.Close()
		}
		os.Remove(path)
	}
	return in, nil
}

// fleet-shards: plan → digest → blob → frames → dispatch → barrier merge
// over two loopback workers. The observation is re-serialised with a new
// TStartMJD before every job, so every job has a new digest — two cold
// blob uploads per job, as in a real fleet — while the explicit Key keeps
// candidate records identical. Reference: an unsharded job on the same
// engine.
func setupFleetShards(seed int64, scale int, _ string) (*instance, error) {
	o := observation{name: "FLEETSHARDS", nchans: 128, nsamples: 65536 / scale, dmLo: 20, dmHi: 280, pulses: max(2, 8/scale), rfi: max(1, 4/scale)}
	spec := o.spec(seed)
	fb, err := sps.Generate(sps.SynthConfig(spec))
	if err != nil {
		return nil, err
	}
	var raw []byte
	serialise := func() error {
		fb.TStartMJD++
		var buf bytes.Buffer
		buf.Grow(4*len(fb.Data) + 1024) // samples + header, in one allocation
		if err := sps.Write(&buf, fb); err != nil {
			return err
		}
		raw = buf.Bytes()
		return nil
	}
	if err := serialise(); err != nil {
		return nil, err
	}
	// Each worker's blob cache holds this job's observation and the last
	// one's. Every job still uploads cold, and the resident set the
	// collector has to mark stays small: with room for four the ten-run
	// spread of job_s measured 4.2 %, with room for two 1.3 %.
	servers, urls := loopbackWorkers(2, 2*int64(len(raw)), obs.NewRegistry())
	job := drapid.DetectJob{Key: "FLEETSHARDS:58000.0000:0.0000:0.0000:0", NormWindow: 2048}
	in := detectInstance(o, spec, raw, job)
	in.sizes["shards"], in.sizes["remote_workers"] = 4, len(servers)
	in.newEngine = func(workers int) (*drapid.Engine, error) {
		return drapid.New(drapid.WithWorkers(workers), drapid.WithMetrics(drapid.NewMetricsRegistry()),
			drapid.WithRemoteWorkers(urls...))
	}
	in.prepare = serialise
	in.submit = func(e *drapid.Engine) (*drapid.Job, error) {
		j := job
		j.Filterbank, j.Shards, j.ShardBy = raw, 4, drapid.ShardByDM
		return e.SubmitDetect(context.Background(), j)
	}
	in.reference = func(e *drapid.Engine) (outcome, error) {
		single := job
		single.Filterbank = raw
		it, err := runJob(e, func() (*drapid.Job, error) { return e.SubmitDetect(context.Background(), single) }, false)
		return it.out, err
	}
	in.path = append([]string{"sps.Read", "fleet.PlanDM", "fleet.Coordinator.Run/remote"}, identifyPath...)
	in.close = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return in, nil
}

// loopbackWorkers starts n in-process fleet workers, each one thread wide
// behind its own limiter and blob cache, as `drapidd -worker` would be.
func loopbackWorkers(n int, cacheBytes int64, reg *obs.Registry) ([]*httptest.Server, []string) {
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewServer(fleet.NewHandler(workerExec(), fleet.NewBlobCache(cacheBytes, reg)))
		urls[i] = servers[i].URL
	}
	return servers, urls
}

func workerExec() rdd.ExecConfig {
	exec := rdd.ExecConfig{Workers: 1}
	exec.Limiter = rdd.NewLimiter(1)
	return exec
}

// identify-survey: the paper's own workload — the experiments package's
// Figure 4 mix of PALFA-like 10 s observations (every other one carries a
// synth.RandomPulsar; 2 impulse + 4 flat RFI and 300 noise events each),
// clustered once in setup. Reference: rapidmt.Run with the engine's
// feature configuration.
func setupIdentifySurvey(seed int64, scale int, _ string) (*instance, error) {
	sv := synth.PALFA()
	sv.TobsSec = 10
	// The survey points at the same sky on every run: the pulsars and the
	// pulses they emit are drawn from skySeed, and the seed draws each
	// observation's RFI and noise around them. Pulsar pulses are most of
	// the events, and one bright short-period source more or less moves
	// job_s by tens of percent, which would drown any code change.
	sky := synth.NewGenerator(sv, skySeed)
	pulsars := rand.New(rand.NewSource(skySeed))
	gen := synth.NewGenerator(sv, seed)
	nobs := max(4, 96/scale)
	observations := make([]spe.Observation, nobs)
	type pulse struct {
		key string
		synth.Injection
	}
	var pulses []pulse // every pulsar pulse in the data
	for i := range observations {
		observations[i], _ = gen.Observe(gen.NextKey(), synth.Sources{NumImpulseRFI: 2, NumFlatRFI: 4, NumNoise: 300})
		if i%2 != 0 {
			continue
		}
		src, truth := sky.Observe(observations[i].Key, synth.Sources{
			Pulsars: []synth.Pulsar{synth.RandomPulsar(pulsars, synth.AnyBand, synth.AnyBrightness, false)}})
		observations[i].Events = append(observations[i].Events, src.Events...)
		spe.SortByTime(observations[i].Events)
		for _, inj := range truth {
			pulses = append(pulses, pulse{observations[i].Key.String(), inj})
		}
	}
	prep := pipeline.Prepare(observations, sv.Grid, dbscan.DefaultParams())
	feat := features.Config{Grid: dmgrid.Default(), BandMHz: 300, FreqGHz: 1.4} // Engine.Submit's defaults

	// One beam of the survey as the detect stage upstream of this workload
	// would see it: the sps and fleet layers are not on this workload's
	// path, so the layer pass times them on this probe instead.
	probe := observation{name: "PROBE", nchans: 64, nsamples: 32768 / scale, dmLo: 20, dmHi: 280, pulses: 2}
	raw, err := drapid.GenerateFilterbank(probe.spec(seed))
	if err != nil {
		return nil, err
	}

	// The Figure 4 mix keeps sources at the detection threshold: this sky's
	// recall is 0.83–0.85 whatever the seed, under the detect gate. A
	// scaled-down run sees its first few pulsars only, not a population.
	minRecall := 0.7
	if scale > 1 {
		minRecall = 0
	}
	peakDM, startT, stopT := featureIndex("SNRPeakDM"), featureIndex("StartTime"), featureIndex("StopTime")
	in := &instance{
		obsSeconds: float64(nobs) * sv.TobsSec,
		sizes: map[string]any{
			"observations": nobs, "pulsar_pulses": len(pulses), "spe_lines": prep.NumSPEs, "clusters": prep.NumClusters(),
			"probe_filterbank_mib": float64(len(raw)) / (1 << 20),
		},
		newEngine: plainEngine,
		submit: func(e *drapid.Engine) (*drapid.Job, error) {
			return e.Submit(context.Background(), drapid.IdentifyJob{Data: prep.DataLines, Clusters: prep.ClusterLines})
		},
		reference: func(e *drapid.Engine) (outcome, error) {
			mt, err := rapidmt.Run(prep.DataLines, prep.ClusterLines, e.Workers(), rapidmt.PaperWorkstation(),
				rdd.DefaultCostModel(), core.DefaultParams(), feat)
			if err != nil {
				return outcome{}, err
			}
			lines := make([]string, len(mt.ML))
			for i, r := range mt.ML {
				lines[i] = r.Format()
			}
			return outcome{digest: digestLines(lines), records: len(lines)}, nil
		},
		same: sameRecords,
		// A pulse is recovered when a candidate of its observation peaks
		// within max(5, 10 %) pc cm⁻³ of the true DM and spans its arrival
		// time ± 50 ms.
		recall: func(cands []drapid.Candidate) (float64, []string) {
			byKey := make(map[string][]drapid.Candidate)
			for _, c := range cands {
				byKey[c.Key] = append(byKey[c.Key], c)
			}
			var missed []string
		pulse:
			for _, p := range pulses {
				for _, c := range byKey[p.key] {
					if math.Abs(c.Features[peakDM]-p.TrueDM) <= math.Max(5, 0.1*p.TrueDM) &&
						c.Features[startT]-0.05 <= p.THi && c.Features[stopT]+0.05 >= p.TLo {
						continue pulse
					}
				}
				missed = append(missed, fmt.Sprintf("%s DM %.1f SNR %.1f t %.2f", p.key, p.TrueDM, p.PeakSNR, p.TLo))
			}
			return 1 - float64(len(missed))/float64(len(pulses)), missed
		},
		minRecall: minRecall,
		path:      []string{"pipeline.Upload", "pipeline.RunDRAPID"},
		layers: layerInput{
			raw: raw, dmMax: 300,
			survey: &surveyInput{obs: observations, grid: sv.Grid, feat: feat, params: core.DefaultParams()},
		},
		close: func() {},
	}
	return in, nil
}
