package sps

import (
	"fmt"
	"math"
	"math/rand"
)

// InjectedPulse is one dispersed pulse of ground truth to embed in a
// synthetic filterbank.
type InjectedPulse struct {
	// TimeSec is the pulse arrival time at the highest observed frequency,
	// in seconds from the start of the observation.
	TimeSec float64 `json:"time_sec"`
	// DM is the true dispersion measure in pc cm⁻³.
	DM float64 `json:"dm"`
	// WidthMs is the intrinsic (top-hat) pulse width in milliseconds.
	WidthMs float64 `json:"width_ms"`
	// SNR is the target matched-filter significance at the true DM with
	// the matched boxcar width — the value a perfect search recovers.
	SNR float64 `json:"snr"`
}

// RFIBurst is one broadband (zero-DM) interference burst: the same
// amplitude lands in every channel at the same time, which is what makes
// dedispersion smear it away at non-zero trial DMs while the DM-0 trial
// sees it at full strength.
type RFIBurst struct {
	// TimeSec is the burst time in seconds from the start.
	TimeSec float64 `json:"time_sec"`
	// WidthMs is the burst duration in milliseconds.
	WidthMs float64 `json:"width_ms"`
	// Amp is the per-channel amplitude in units of the noise sigma.
	Amp float64 `json:"amp"`
}

// PulseTrain injects a repeating source: Count pulses at one DM and
// width, spaced PeriodSec apart from StartSec, each with the same target
// SNR. It is the ground truth the repeat-source sifting stage recovers.
type PulseTrain struct {
	// StartSec is the first pulse's arrival time at the highest observed
	// frequency, in seconds from the start of the observation.
	StartSec float64 `json:"start_sec"`
	// PeriodSec is the pulse spacing in seconds (required when Count > 1).
	PeriodSec float64 `json:"period_sec,omitempty"`
	// Count is the number of pulses.
	Count int `json:"count"`
	// DM, WidthMs and SNR are as for InjectedPulse, shared by every pulse.
	DM      float64 `json:"dm"`
	WidthMs float64 `json:"width_ms"`
	SNR     float64 `json:"snr"`
}

// Pulses expands the train into its individual injectable pulses.
func (t PulseTrain) Pulses() []InjectedPulse {
	out := make([]InjectedPulse, t.Count)
	for i := range out {
		out[i] = InjectedPulse{
			TimeSec: t.StartSec + float64(i)*t.PeriodSec,
			DM:      t.DM,
			WidthMs: t.WidthMs,
			SNR:     t.SNR,
		}
	}
	return out
}

// SynthConfig describes a synthetic observation: the receiver geometry,
// the Gaussian noise floor, and the injected signals (pulses with known
// DM/width/SNR ground truth, plus broadband RFI). The zero value of every
// geometry field takes the documented default, so SynthConfig{} generates
// a usable pure-noise observation.
type SynthConfig struct {
	// NChans, NSamples, TsampSec, Fch1MHz, FoffMHz shape the filterbank;
	// defaults: 128 channels, 16384 samples, 256 µs, 1500 MHz, −2 MHz
	// (a 256 MHz band observed for ~4.2 s).
	NChans   int     `json:"nchans,omitempty"`
	NSamples int     `json:"nsamples,omitempty"`
	TsampSec float64 `json:"tsamp_sec,omitempty"`
	Fch1MHz  float64 `json:"fch1_mhz,omitempty"`
	FoffMHz  float64 `json:"foff_mhz,omitempty"`
	// TStartMJD and SourceName annotate the header.
	TStartMJD  float64 `json:"tstart_mjd,omitempty"`
	SourceName string  `json:"source_name,omitempty"`
	// NoiseSigma is the per-channel Gaussian noise level; zero means 1.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// Seed makes the noise stream deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Pulses and RFI are the injected signals.
	Pulses []InjectedPulse `json:"pulses,omitzero"`
	// RFI bursts to inject.
	RFI []RFIBurst `json:"rfi,omitzero"`
	// Trains are repeating sources, expanded into individual pulses at
	// generation time.
	Trains []PulseTrain `json:"trains,omitzero"`
}

// withDefaults resolves zero geometry fields.
func (c SynthConfig) withDefaults() SynthConfig {
	if c.NChans == 0 {
		c.NChans = 128
	}
	if c.NSamples == 0 {
		c.NSamples = 16384
	}
	if c.TsampSec == 0 {
		c.TsampSec = 256e-6
	}
	if c.Fch1MHz == 0 {
		c.Fch1MHz = 1500
	}
	if c.FoffMHz == 0 {
		c.FoffMHz = -2
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 1
	}
	if c.SourceName == "" {
		c.SourceName = "SYNTH"
	}
	if c.TStartMJD == 0 {
		c.TStartMJD = 58000
	}
	return c
}

// Header returns the filterbank header the configuration generates.
func (c SynthConfig) Header() Header {
	c = c.withDefaults()
	return Header{
		SourceName: c.SourceName,
		DataType:   1,
		TStartMJD:  c.TStartMJD,
		TsampSec:   c.TsampSec,
		Fch1MHz:    c.Fch1MHz,
		FoffMHz:    c.FoffMHz,
		NChans:     c.NChans,
		NBits:      32,
		NIFs:       1,
		NSamples:   c.NSamples,
	}
}

// WidthSamples returns the pulse width in samples at the given sampling
// interval (at least 1).
func (p InjectedPulse) WidthSamples(tsampSec float64) int {
	w := int(math.Round(p.WidthMs / 1000 / tsampSec))
	if w < 1 {
		w = 1
	}
	return w
}

// Generate renders the synthetic observation: zero-mean Gaussian noise per
// channel, plus every injected pulse swept across the band by the cold-
// plasma delay and every RFI burst landed flat. Pulse amplitudes are set
// so that ideal dedispersion at the true DM followed by a matched boxcar
// recovers the configured SNR: summing nchans channels over w samples
// grows the signal by nchans·w and the noise by √(nchans·w), so the
// per-channel per-sample amplitude is SNR·σ/√(nchans·w).
func Generate(cfg SynthConfig) (*Filterbank, error) {
	cfg = cfg.withDefaults()
	hdr := cfg.Header()
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	if hdr.NSamples == 0 {
		return nil, fmt.Errorf("sps: synthetic observation needs nsamples > 0")
	}
	if hdr.NSamples*hdr.NChans > maxSamples {
		return nil, fmt.Errorf("sps: %d×%d data block exceeds %d values", hdr.NSamples, hdr.NChans, maxSamples)
	}
	tobs := hdr.DurationSec()
	pulses := append([]InjectedPulse(nil), cfg.Pulses...)
	for i, tr := range cfg.Trains {
		if tr.Count <= 0 {
			return nil, fmt.Errorf("sps: train %d needs count > 0", i)
		}
		if tr.Count > 1 && tr.PeriodSec <= 0 {
			return nil, fmt.Errorf("sps: train %d needs period > 0 for %d pulses", i, tr.Count)
		}
		// Bound the train before expanding it: pulses rise monotonically from
		// StartSec, so the train lies inside the observation when its ends
		// do, and no more pulses than samples fit in it.
		if last := tr.StartSec + float64(tr.Count-1)*tr.PeriodSec; tr.StartSec < 0 || !(last < tobs) {
			return nil, fmt.Errorf("sps: train %d's pulses span t=%gs to %gs, outside the %gs observation", i, tr.StartSec, last, tobs)
		}
		if tr.Count > hdr.NSamples {
			return nil, fmt.Errorf("sps: train %d has %d pulses, more than the observation's %d samples", i, tr.Count, hdr.NSamples)
		}
		pulses = append(pulses, tr.Pulses()...)
	}
	for i, p := range pulses {
		if p.TimeSec < 0 || p.TimeSec >= tobs {
			return nil, fmt.Errorf("sps: pulse %d at t=%gs outside the %gs observation", i, p.TimeSec, tobs)
		}
		if p.DM < 0 || p.SNR <= 0 || p.WidthMs <= 0 {
			return nil, fmt.Errorf("sps: pulse %d needs dm >= 0, snr > 0, width > 0", i)
		}
	}
	fb := &Filterbank{Header: hdr, Data: make([]float32, hdr.NSamples*hdr.NChans)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sigma := cfg.NoiseSigma
	for i := range fb.Data {
		fb.Data[i] = float32(rng.NormFloat64() * sigma)
	}
	ref := hdr.FTopMHz()
	for _, p := range pulses {
		w := p.WidthSamples(hdr.TsampSec)
		amp := float32(p.SNR * sigma / math.Sqrt(float64(hdr.NChans)*float64(w)))
		for ch := 0; ch < hdr.NChans; ch++ {
			at := p.TimeSec + DelaySeconds(p.DM, hdr.FreqMHz(ch), ref)
			start := int(math.Round(at / hdr.TsampSec))
			addBox(fb, ch, start, w, amp)
		}
	}
	for _, b := range cfg.RFI {
		w := int(math.Round(b.WidthMs / 1000 / hdr.TsampSec))
		if w < 1 {
			w = 1
		}
		start := int(math.Round(b.TimeSec / hdr.TsampSec))
		amp := float32(b.Amp * sigma)
		for ch := 0; ch < hdr.NChans; ch++ {
			addBox(fb, ch, start, w, amp)
		}
	}
	return fb, nil
}

// addBox adds a top-hat of the given amplitude to one channel, clipped to
// the observation: only the samples [max(start, 0), min(start+width,
// NSamples)) are visited, however wide the box.
func addBox(fb *Filterbank, ch, start, width int, amp float32) {
	if start < 0 {
		width += start // drop the part of the box before the observation
		start = 0
	}
	end := fb.NSamples
	if width < end-start {
		end = start + width
	}
	for t := start; t < end; t++ {
		fb.Data[t*fb.NChans+ch] += amp
	}
}

// RandomPulses draws n injectable pulses with times, DMs, widths and SNRs
// uniform over the given ranges, snapped inside the observation so the
// full dispersion sweep fits. It is the helper synthetic-benchmark and CLI
// callers use to fabricate ground truth.
func RandomPulses(cfg SynthConfig, n int, dmLo, dmHi, snrLo, snrHi float64, seed int64) []InjectedPulse {
	cfg = cfg.withDefaults()
	hdr := cfg.Header()
	rng := rand.New(rand.NewSource(seed))
	// Keep arrivals inside the portion of the band-swept observation every
	// trial can still see: leave the worst-case sweep plus a margin.
	usable := hdr.DurationSec() - DelaySeconds(dmHi, hdr.FreqMHz(hdr.NChans-1), hdr.FTopMHz()) - 0.05*hdr.DurationSec()
	if usable <= 0 {
		usable = hdr.DurationSec() / 2
	}
	out := make([]InjectedPulse, n)
	for i := range out {
		out[i] = InjectedPulse{
			TimeSec: 0.02*hdr.DurationSec() + rng.Float64()*usable*0.95,
			DM:      dmLo + rng.Float64()*(dmHi-dmLo),
			WidthMs: 1 + rng.Float64()*7,
			SNR:     snrLo + rng.Float64()*(snrHi-snrLo),
		}
	}
	return out
}
