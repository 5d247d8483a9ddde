package sps

import (
	"fmt"
	"math"
)

// PlanKind selects the dedispersion strategy of one search.
type PlanKind string

const (
	// PlanAuto picks subband or brute-force dedispersion by the arithmetic
	// cost model (PlanSubbands chooses the subband configuration; brute
	// force wins when no subband split beats it, e.g. very few channels or
	// a fine grid so dense the nominal grid degenerates into it).
	PlanAuto PlanKind = ""
	// PlanSubband forces the two-stage subband path (DESIGN.md §6).
	PlanSubband PlanKind = "subband"
	// PlanBrute forces one-stage brute-force dedispersion: every trial sums
	// the full band at its own channel shifts.
	PlanBrute PlanKind = "brute"
)

// ParsePlanKind maps the CLI/HTTP spelling of a dedispersion plan to its
// PlanKind: "" and "auto" select automatically, "subband" and "brute"
// force a strategy.
func ParsePlanKind(s string) (PlanKind, error) {
	switch s {
	case "", "auto":
		return PlanAuto, nil
	case string(PlanSubband):
		return PlanSubband, nil
	case string(PlanBrute):
		return PlanBrute, nil
	}
	return PlanAuto, fmt.Errorf("sps: unknown dedispersion plan %q (want auto, subband or brute)", s)
}

// DedispersePlan configures how a search dedisperses its trial-DM grid.
// The zero value selects automatically (PlanAuto with an auto-chosen
// subband count), which is what detect jobs submitted through the engine
// use by default.
type DedispersePlan struct {
	// Kind selects the strategy; PlanAuto (the zero value) decides by cost.
	Kind PlanKind
	// NSub forces the subband count of a subband plan; 0 auto-chooses the
	// count minimising total arithmetic under the half-sample smearing
	// ceiling (see PlanSubbands). Ignored by PlanBrute.
	NSub int
}

// SubbandPlan is one concrete two-stage subband dedispersion plan
// (Adámek & Armour 2020): stage 1 dedisperses each of NSub contiguous
// channel groups once per *nominal* DM — using only the intra-subband
// delays, relative to the subband's own highest frequency — and stage 2
// assembles every fine trial DM by shifting and summing the NSub subband
// series of the nearest nominal DM. Stage 1 costs |NominalDMs| × NChans
// channel-sums per sample and stage 2 |DMs| × NSub, against the brute
// force |DMs| × NChans; the approximation error is bounded by
// MaxSmearSec, held below half a sample by construction.
type SubbandPlan struct {
	hdr Header
	dms []float64

	// NSub is the number of subbands (the last may be narrower when it
	// does not divide the channel count).
	NSub int
	// chansPer is the channel count of every subband but possibly the last.
	chansPer int
	// subRef is each subband's reference frequency in MHz — its highest
	// channel centre, the zero-delay point of the subband's stage-1 shifts.
	subRef []float64
	// NominalDMs is the coarse stage-1 grid. Its spacing is the widest
	// that keeps the worst intra-subband smearing under half a sample; when
	// even the fine grid's own spacing exceeds that, the nominal grid *is*
	// the fine grid (zero smearing, but no stage-1 saving — the cost model
	// then prefers brute force under PlanAuto).
	NominalDMs []float64
	// assign maps each fine trial index to its nearest nominal DM index.
	assign []int
	// MaxSmearSec bounds the added intra-subband smearing in seconds: the
	// worst channel's |Δdelay| when dedispersed at its nominal rather than
	// its fine DM. PlanSubbands guarantees MaxSmearSec ≤ TsampSec/2.
	MaxSmearSec float64
	// cost is the plan's channel-sum count per sample, the quantity the
	// auto-chooser minimises; bruteCost is the one-stage equivalent.
	cost, bruteCost float64
}

// MaxSmearSamples returns the smearing bound in samples (≤ 0.5 for any
// plan PlanSubbands builds).
func (p *SubbandPlan) MaxSmearSamples() float64 { return p.MaxSmearSec / p.hdr.TsampSec }

// Describe renders the plan for job summaries and logs, e.g.
// "subband(nsub=32 nominals=41 smear=0.42samp)".
func (p *SubbandPlan) Describe() string {
	return fmt.Sprintf("subband(nsub=%d nominals=%d smear=%.2fsamp)",
		p.NSub, len(p.NominalDMs), p.MaxSmearSamples())
}

// subRange returns the channel index range [lo, hi) of subband s.
func (p *SubbandPlan) subRange(s int) (int, int) {
	lo := s * p.chansPer
	hi := lo + p.chansPer
	if hi > p.hdr.NChans {
		hi = p.hdr.NChans
	}
	return lo, hi
}

// PlanSubbands builds a subband plan for one header and ascending fine
// trial grid. nsub == 0 auto-chooses the subband count: candidates are
// swept (powers of two up to NChans), each paired with the coarsest
// nominal-DM spacing whose worst-case intra-subband smearing — the
// nearest-nominal assignment puts a fine trial at most half a nominal
// step from its nominal, and a subband's delay-per-DM span then bounds
// every channel's timing error — stays below half a sample, and the
// candidate minimising total channel-sums (stage 1 + stage 2) wins.
func PlanSubbands(h Header, dms []float64, nsub int) (*SubbandPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if len(dms) == 0 {
		return nil, fmt.Errorf("sps: no trial DMs to plan")
	}
	for i, dm := range dms {
		if math.IsNaN(dm) || math.IsInf(dm, 0) || dm < 0 {
			return nil, fmt.Errorf("sps: trial DM %g must be finite and >= 0", dm)
		}
		if i > 0 && dm < dms[i-1] {
			return nil, fmt.Errorf("sps: trial DMs must ascend (trial %d: %g after %g)", i, dm, dms[i-1])
		}
	}
	if nsub < 0 || nsub > h.NChans {
		return nil, fmt.Errorf("sps: subband count %d outside [0,%d] (0 auto-chooses)", nsub, h.NChans)
	}
	if nsub > 0 {
		return buildSubbandPlan(h, dms, nsub), nil
	}
	var best *SubbandPlan
	for cand := 1; ; cand *= 2 {
		if cand > h.NChans {
			cand = h.NChans
		}
		p := buildSubbandPlan(h, dms, cand)
		if best == nil || p.cost < best.cost {
			best = p
		}
		if cand == h.NChans {
			break
		}
	}
	return best, nil
}

// buildSubbandPlan derives the concrete plan for one subband count: the
// channel partition, per-subband references, and the nominal grid sized
// by the half-sample smearing ceiling.
func buildSubbandPlan(h Header, dms []float64, nsub int) *SubbandPlan {
	chansPer := (h.NChans + nsub - 1) / nsub
	nsub = (h.NChans + chansPer - 1) / chansPer // drop empty trailing subbands
	p := &SubbandPlan{
		hdr:      h,
		dms:      dms,
		NSub:     nsub,
		chansPer: chansPer,
		subRef:   make([]float64, nsub),
	}
	// spanSec is the worst subband's internal delay range per unit DM:
	// the timing error a channel accrues when its subband is dedispersed
	// ΔDM away from the truth is ΔDM × span(subband).
	var spanSec float64
	for s := 0; s < nsub; s++ {
		lo, hi := p.subRange(s)
		fA, fB := h.FreqMHz(lo), h.FreqMHz(hi-1)
		fMin, fMax := math.Min(fA, fB), math.Max(fA, fB)
		p.subRef[s] = fMax
		if span := DelaySeconds(1, fMin, fMax); span > spanSec {
			spanSec = span
		}
	}
	dmLo, dmHi := dms[0], dms[len(dms)-1]
	switch {
	case spanSec == 0 || dmHi == dmLo:
		// Single-channel subbands (zero intra-subband delay) or a single
		// fine DM: one nominal serves every trial exactly.
		nominal := dmLo
		if spanSec > 0 {
			nominal = (dmLo + dmHi) / 2
		}
		p.NominalDMs = []float64{nominal}
		p.assign = make([]int, len(dms))
		p.MaxSmearSec = (dmHi - dmLo) / 2 * spanSec
	default:
		// Half-sample ceiling: (step/2) × span ≤ tsamp/2 ⇒ step ≤ tsamp/span.
		step := h.TsampSec / spanSec
		if minGap := minSpacing(dms); step < minGap || (dmHi-dmLo)/step >= float64(maxNominals) {
			// Either the required nominal grid would be denser than the fine
			// grid itself, or an extreme DM range against a tiny step would
			// ask for an unrepresentable nominal count (the float quotient
			// guards the int conversion below against overflow). Degenerate
			// to nominal == fine (exact, zero smearing).
			p.NominalDMs = append([]float64(nil), dms...)
			p.assign = make([]int, len(dms))
			for i := range p.assign {
				p.assign[i] = i
			}
		} else {
			nNom := int(math.Ceil((dmHi-dmLo)/step)) + 1
			spacing := (dmHi - dmLo) / float64(nNom-1)
			p.NominalDMs = make([]float64, nNom)
			for k := range p.NominalDMs {
				p.NominalDMs[k] = dmLo + float64(k)*spacing
			}
			p.assign = make([]int, len(dms))
			for i, dm := range dms {
				k := int(math.Round((dm - dmLo) / spacing))
				if k < 0 {
					k = 0
				}
				if k >= nNom {
					k = nNom - 1
				}
				p.assign[i] = k
			}
			p.MaxSmearSec = spacing / 2 * spanSec
		}
	}
	p.cost = float64(len(p.NominalDMs))*float64(h.NChans) + float64(len(dms))*float64(p.NSub)
	p.bruteCost = float64(len(dms)) * float64(h.NChans)
	return p
}

// maxNominals bounds the nominal grid a plan may allocate; a ceiling-
// compliant grid needing more nominals than this degenerates to the fine
// grid instead (always valid — zero smearing — and bounded by the caller's
// trial count).
const maxNominals = 1 << 20

// minSpacing returns the smallest gap of the ascending grid (0 for a
// single trial).
func minSpacing(dms []float64) float64 {
	if len(dms) < 2 {
		return 0
	}
	min := math.Inf(1)
	for i := 1; i < len(dms); i++ {
		if gap := dms[i] - dms[i-1]; gap < min {
			min = gap
		}
	}
	return min
}

// resolveDedisperse turns a plan config into the concrete strategy for one
// search: a non-nil *SubbandPlan for the two-stage path, nil for brute
// force, plus the human-readable description Stats carries.
func resolveDedisperse(h Header, dms []float64, cfg DedispersePlan) (*SubbandPlan, string, error) {
	switch cfg.Kind {
	case PlanBrute:
		return nil, string(PlanBrute), nil
	case PlanSubband, PlanAuto:
		p, err := PlanSubbands(h, dms, cfg.NSub)
		if err != nil {
			return nil, "", err
		}
		if cfg.Kind == PlanAuto && p.cost >= p.bruteCost {
			return nil, string(PlanBrute), nil
		}
		return p, p.Describe(), nil
	}
	return nil, "", fmt.Errorf("sps: unknown dedispersion plan kind %q", cfg.Kind)
}

// stage1 dedisperses every subband at one nominal DM over the staged block
// cm: within subband s, channels shift by the nominal's stage-1 table
// (shifts, relative to the subband's own reference frequency subRef[s]) and
// sum into dst[s], a float32 series of the block's rows [0, cm.rows −
// intra[s]) — the tail a subband channel would read past the end is
// dropped, exactly as full-band dedispersion drops its tail. shifts and
// intra are the search's per-nominal tables (shiftTables), so stage 1 over
// a gulp and over the whole observation is the same code. A block shorter
// than a subband's own sweep leaves that series empty; every fine trial of
// the nominal then has a sweep longer than the block too, and is skipped.
func (p *SubbandPlan) stage1(cm *chanMajor, shifts, intra []int, dst [][]float32) [][]float32 {
	if cap(dst) < p.NSub {
		dst = make([][]float32, p.NSub)
	}
	dst = dst[:p.NSub]
	for s := range dst {
		lo, hi := p.subRange(s)
		dst[s] = dedisperse(cm, shifts, lo, hi, 0, max(cm.rows-intra[s], 0), dst[s])
	}
	return dst
}

// sumSubbands is stage 2's summation, the body of combine:
// out[t] = Σ_s series[s][off + subShifts[s] + t] over the whole of out, in
// ascending subband order per sample. out is walked in tileSamples tiles,
// each zeroed and then passed by four subband series per pass, so the tile
// is loaded and stored once per four subbands and stays L1-resident
// however long the series is.
func sumSubbands(series [][]float32, subShifts []int, off int, out []float64) {
	for t0 := 0; t0 < len(out); t0 += tileSamples {
		dst := out[t0:min(t0+tileSamples, len(out))]
		clear(dst)
		at, n := off+t0, len(dst)
		s := 0
		for ; s+4 <= len(series); s += 4 {
			a, b := series[s][at+subShifts[s]:][:n], series[s+1][at+subShifts[s+1]:][:n]
			c, d := series[s+2][at+subShifts[s+2]:][:n], series[s+3][at+subShifts[s+3]:][:n]
			for t := range dst {
				dst[t] = (((dst[t] + float64(a[t])) + float64(b[t])) + float64(c[t])) + float64(d[t])
			}
		}
		for ; s < len(series); s++ {
			for t, v := range series[s][at+subShifts[s]:][:n] {
				dst[t] += float64(v)
			}
		}
	}
}

// combine assembles one fine trial's output samples [outLo, outHi) from a
// block's stage-1 series (whose row 0 is absolute sample blkStart): each
// subband shifts by the trial's stage-2 table subShifts — its reference
// frequency's delay at the *fine* DM, relative to the global top frequency
// — and the series sum into out, reused when its capacity suffices.
func combine(series [][]float32, subShifts []int, blkStart, outLo, outHi int, out []float64) []float64 {
	n := outHi - outLo
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	sumSubbands(series, subShifts, outLo-blkStart, out)
	return out
}

// nominalGroups buckets the fine trial indices of [lo, hi) by their
// assigned nominal DM — the fan-out unit of the two-stage path.
func (p *SubbandPlan) nominalGroups(lo, hi int) [][]int {
	groups := make([][]int, len(p.NominalDMs))
	for i := lo; i < hi; i++ {
		k := p.assign[i]
		groups[k] = append(groups[k], i)
	}
	return groups
}
