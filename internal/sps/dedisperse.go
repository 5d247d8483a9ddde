package sps

import "math"

// DispersionK is the cold-plasma dispersion constant in MHz² pc⁻¹ cm³ s:
// a pulse at dispersion measure DM arrives at frequency f later than at
// infinite frequency by DispersionK · DM / f² seconds.
const DispersionK = 4.148808e3

// DelaySeconds returns the dispersion delay in seconds of a pulse with
// dispersion measure dm at frequency fMHz relative to refMHz:
//
//	Δt = 4.148808×10³ s · DM · (f⁻² − f_ref⁻²)   [f in MHz]
//
// Positive for f below the reference — lower frequencies arrive later.
func DelaySeconds(dm, fMHz, refMHz float64) float64 {
	return DispersionK * dm * (1/(fMHz*fMHz) - 1/(refMHz*refMHz))
}

// ChannelShifts fills shifts (grown as needed; pass nil or a reused
// buffer) with the per-channel sample delay at trial DM dm, relative to the
// highest-frequency channel, rounded to the nearest sample. Shifts are
// non-negative and ascending toward lower frequencies.
func ChannelShifts(h Header, dm float64, shifts []int) []int {
	if cap(shifts) < h.NChans {
		shifts = make([]int, h.NChans)
	}
	shifts = shifts[:h.NChans]
	ref := h.FTopMHz()
	for ch := 0; ch < h.NChans; ch++ {
		shifts[ch] = int(math.Round(DelaySeconds(dm, h.FreqMHz(ch), ref) / h.TsampSec))
	}
	return shifts[:h.NChans]
}

// MaxShift returns the largest per-channel sample delay at trial DM dm —
// the number of trailing samples a dedispersed series loses.
func MaxShift(h Header, dm float64) int {
	worst := 0
	ref := h.FTopMHz()
	for _, f := range []float64{h.FreqMHz(0), h.FreqMHz(h.NChans - 1)} {
		if s := int(math.Round(DelaySeconds(dm, f, ref) / h.TsampSec)); s > worst {
			worst = s
		}
	}
	return worst
}

// ZeroDMFilter returns a copy of the filterbank with each sample's
// band-averaged power subtracted from every channel — the zero-DM filter
// (Eatough, Keane & Lyne 2009). Broadband RFI puts the same power in every
// channel at one instant, so it cancels exactly; a dispersed pulse touches
// only ~width/sweep of the band at any instant and loses only that
// fraction of its power. The cost is one filtered copy of the data block
// (the original is left untouched so callers can search both ways). Search
// never pays it: with Config.ZeroDM both drivers fuse this arithmetic into
// the channel-major staging of each block (chanMajor.stage).
func ZeroDMFilter(fb *Filterbank) *Filterbank {
	out := &Filterbank{Header: fb.Header, Data: make([]float32, len(fb.Data))}
	nchan := fb.NChans
	for t := 0; t < fb.NSamples; t++ {
		row := fb.Data[t*nchan : (t+1)*nchan]
		var sum float64
		for _, v := range row {
			sum += float64(v)
		}
		m := float32(sum / float64(nchan))
		orow := out.Data[t*nchan : (t+1)*nchan]
		for i, v := range row {
			orow[i] = v - m
		}
	}
	return out
}

// shiftTables holds every shift table a search's dedispersion reads,
// derived once per search from the header and the plan: each trial's sweep
// (the trailing samples its output loses, fixing its length at N − sweep),
// the overlap a block stream must carry (the largest sweep), and the plan's
// channel/subband shift tables. They are block-invariant, so the one-gulp
// search and a gulped one index the same tables.
type shiftTables struct {
	overlap int
	sweeps  []int
	// trialCh is the brute path's per-trial channel shift table.
	trialCh [][]int
	// nomCh/nomIntra are the subband path's per-nominal stage-1 channel
	// shifts and per-subband intra maxima; trialSub its per-trial stage-2
	// subband shifts.
	nomCh    [][]int
	nomIntra [][]int
	trialSub [][]int
}

// table returns n rows of width ints carved from one allocation, so a
// search's tables cost a handful of allocations however many trials it has.
func table(n, width int) [][]int {
	flat := make([]int, n*width)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// buildShiftTables precomputes shiftTables for one search; a nil plan is
// brute force.
func buildShiftTables(hdr Header, dms []float64, plan *SubbandPlan) *shiftTables {
	ss := &shiftTables{sweeps: make([]int, len(dms))}
	if plan == nil {
		ss.trialCh = table(len(dms), hdr.NChans)
		for i, dm := range dms {
			ChannelShifts(hdr, dm, ss.trialCh[i])
			ss.sweeps[i] = MaxShift(hdr, dm)
			ss.overlap = max(ss.overlap, ss.sweeps[i])
		}
		return ss
	}
	ss.nomCh = table(len(plan.NominalDMs), hdr.NChans)
	ss.nomIntra = table(len(plan.NominalDMs), plan.NSub)
	for k, nu := range plan.NominalDMs {
		for s := 0; s < plan.NSub; s++ {
			lo, hi := plan.subRange(s)
			for ch := lo; ch < hi; ch++ {
				sh := int(math.Round(DelaySeconds(nu, hdr.FreqMHz(ch), plan.subRef[s]) / hdr.TsampSec))
				ss.nomCh[k][ch] = sh
				ss.nomIntra[k][s] = max(ss.nomIntra[k][s], sh)
			}
		}
	}
	ss.trialSub = table(len(dms), plan.NSub)
	ftop := hdr.FTopMHz()
	for i, dm := range dms {
		intra := ss.nomIntra[plan.assign[i]]
		for s := 0; s < plan.NSub; s++ {
			sh := int(math.Round(DelaySeconds(dm, plan.subRef[s], ftop) / hdr.TsampSec))
			ss.trialSub[i][s] = sh
			ss.sweeps[i] = max(ss.sweeps[i], sh+intra[s])
		}
		ss.overlap = max(ss.overlap, ss.sweeps[i])
	}
	return ss
}
