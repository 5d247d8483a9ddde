package sps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"drapid/internal/spe"
)

// This file holds the per-sample reference forms of the search kernels —
// the loops the tiled production code replaced — and pins the production
// code to them bit-for-bit: dedispersion (refDedisperse, refStage1),
// stage 2 (refSumSubbands), normalise (refNormalize) and boxcar
// (refBoxcarDetect). refSearch chains them into the whole batch search;
// it shares no kernel with Search, only the plan, the shift rounding and
// the event conversion, and is the oracle of equiv_test.go.

// refDedisperse sums the filterbank's channels with the given per-channel
// sample shifts into out, one channel's column at a time with stride
// NChans: sample t of the output is the total power of a pulse whose
// highest-frequency edge arrived at sample t. The output holds NSamples −
// max(shifts) samples (the tail where some channel would read past the end
// is dropped, keeping every output sample a full-band sum); out is reused
// when its capacity suffices. An error is returned when the trial's
// dispersion sweep exceeds the observation.
func refDedisperse(fb *Filterbank, shifts []int, out []float64) ([]float64, error) {
	if len(shifts) != fb.NChans {
		return nil, fmt.Errorf("sps: %d shifts for %d channels", len(shifts), fb.NChans)
	}
	maxShift := 0
	for _, s := range shifts {
		if s < 0 {
			return nil, fmt.Errorf("sps: negative channel shift %d", s)
		}
		if s > maxShift {
			maxShift = s
		}
	}
	n := fb.NSamples - maxShift
	if n < 1 {
		return nil, fmt.Errorf("sps: dispersion sweep of %d samples exceeds the %d-sample observation", maxShift, fb.NSamples)
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	clear(out)
	nchan := fb.NChans
	for ch := 0; ch < nchan; ch++ {
		base := shifts[ch]*nchan + ch
		for t := 0; t < n; t++ {
			out[t] += float64(fb.Data[base])
			base += nchan
		}
	}
	return out, nil
}

// refStage1 is subband stage 1 at nominal DM nu one channel column at a
// time: subband s sums its channels, each shifted by its delay relative to
// the subband's reference frequency, into a float32 series of NSamples −
// (the subband's largest shift) samples. It returns nil when some
// subband's own sweep exceeds the observation, which leaves every fine
// trial of the nominal unconstrainable.
func refStage1(fb *Filterbank, plan *SubbandPlan, nu float64) [][]float32 {
	series := make([][]float32, plan.NSub)
	for s := range series {
		lo, hi := plan.subRange(s)
		shifts := make([]int, hi-lo)
		for ch := lo; ch < hi; ch++ {
			shifts[ch-lo] = int(math.Round(DelaySeconds(nu, fb.FreqMHz(ch), plan.subRef[s]) / fb.TsampSec))
		}
		n := fb.NSamples - slices.Max(shifts)
		if n < 1 {
			return nil
		}
		series[s] = make([]float32, n)
		for ch := lo; ch < hi; ch++ {
			for t := range series[s] {
				series[s][t] += fb.Data[(t+shifts[ch-lo])*fb.NChans+ch]
			}
		}
	}
	return series
}

// refSearch is Search built from the reference loops alone: ZeroDMFilter's
// filtered copy, then per trial refDedisperse (brute) or refStage1 plus
// refSumSubbands at the trial's own stage-2 shifts (subband), then
// refNormalize, refBoxcarDetect, trialEvents and spe.SortByTime. It
// validates and resolves the plan as Search does, honours TrialLo/TrialHi,
// and skips what Search skips: trials whose sweep exceeds the observation.
func refSearch(fb *Filterbank, cfg Config) ([]spe.SPE, Stats, error) {
	var stats Stats
	widths, threshold, plan, _, err := resolveSearch(fb.Header, cfg)
	if err != nil {
		return nil, stats, err
	}
	if cfg.ZeroDM {
		fb = ZeroDMFilter(fb)
	}
	var out []spe.SPE
	search := func(dm float64, series []float64) {
		refNormalize(series, cfg.NormWindow)
		out = append(out, trialEvents(dm, fb.TsampSec, refBoxcarDetect(series, widths, threshold))...)
		stats.Trials++
		stats.Samples += int64(len(series))
	}
	stage1 := map[int][][]float32{} // per nominal index
	lo, hi := trialRange(cfg)
	for i := lo; i < hi; i++ {
		dm := cfg.DMs[i]
		if plan == nil {
			if MaxShift(fb.Header, dm) >= fb.NSamples {
				continue
			}
			series, err := refDedisperse(fb, ChannelShifts(fb.Header, dm, nil), nil)
			if err != nil {
				return nil, stats, err
			}
			search(dm, series)
			continue
		}
		k := plan.assign[i]
		sub, ok := stage1[k]
		if !ok {
			sub = refStage1(fb, plan, plan.NominalDMs[k])
			stage1[k] = sub
		}
		if sub == nil {
			continue
		}
		subShifts := make([]int, plan.NSub)
		n := math.MaxInt
		for s := range subShifts {
			subShifts[s] = int(math.Round(DelaySeconds(dm, plan.subRef[s], fb.FTopMHz()) / fb.TsampSec))
			n = min(n, len(sub[s])-subShifts[s])
		}
		if n < 1 {
			continue
		}
		series := make([]float64, n)
		refSumSubbands(sub, subShifts, 0, series)
		search(dm, series)
	}
	spe.SortByTime(out)
	stats.Events = len(out)
	return out, stats, nil
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

// refNormalize is Normalize one sample at a time: every sample clamps its
// own window and takes its own moments and square root.
func refNormalize(x []float64, window int) {
	n := len(x)
	if n == 0 {
		return
	}
	if window <= 0 || window >= n {
		window = n
	}
	sum, sq := make([]float64, n+1), make([]float64, n+1)
	for i, v := range x {
		sum[i+1] = sum[i] + v
		sq[i+1] = sq[i] + v*v
	}
	half := window / 2
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := lo + window
		if hi > n {
			hi = n
			lo = hi - window
		}
		w := float64(hi - lo)
		mean := (sum[hi] - sum[lo]) / w
		variance := (sq[hi]-sq[lo])/w - mean*mean
		if variance < 1e-12 {
			variance = 1e-12
		}
		x[i] = (x[i] - mean) / math.Sqrt(variance)
	}
}

// refBoxcarDetect is the matched-filter scan over whole-series window sums:
// one ladder pass over all of z, then every start position of every width
// visited in one loop with the end-of-series rule inline.
func refBoxcarDetect(z []float64, widths []int, threshold float64) []Detection {
	n := len(z)
	l := newBoxLadder(widths)
	l.compute(z)
	var cands []Detection
	for _, w := range l.req {
		if w > n {
			continue
		}
		s := l.sums[l.idx[w]]
		raw := threshold * math.Sqrt(float64(w))
		norm := 1 / math.Sqrt(float64(w))
		last := n - w // inclusive last start
		prev := s[0]
		cur := prev
		for t := 0; t <= last; t++ {
			next := cur
			if t < last {
				next = s[t+1]
			}
			// Local maximum (plateaus break to the left) above threshold.
			if cur >= raw && cur >= prev && cur > next {
				cands = append(cands, Detection{Start: t, Width: w, SNR: cur * norm})
			} else if cur >= raw && t == last && cur >= prev {
				cands = append(cands, Detection{Start: t, Width: w, SNR: cur * norm})
			}
			prev, cur = cur, next
		}
	}
	return mergeDetections(cands)
}

// refSeriesLengths straddle the tile length: below it, on it, one and one
// ladder's lookahead beyond it, and several tiles with a one-sample tail.
var refSeriesLengths = []int{1, 63, tileSamples - 1, tileSamples, tileSamples + 1, tileSamples + 63, 3*tileSamples + 1}

func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range refSeriesLengths {
		base := make([]float64, n)
		for i := range base {
			base[i] = 40 + float64(i)*0.003 + 3*rng.NormFloat64()
		}
		// A flat stretch drives the variance floor in every region it spans.
		for i := n / 3; i < n/3+40 && i < n; i++ {
			base[i] = 40
		}
		for _, window := range []int{0, 1, 2, 7, 255, n - 1, n, n + 1, 2*n + 3} {
			if window < 0 {
				continue
			}
			want := append([]float64(nil), base...)
			refNormalize(want, window)
			got := append([]float64(nil), base...)
			Normalize(got, window)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d window=%d: z[%d] = %v, reference %v", n, window, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestBoxcarDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ladders := [][]int{DefaultWidths(), {1, 3, 5, 7, 13, 64}, {1}, {64}, {2, 9}}
	const threshold = 2.5
	for _, n := range refSeriesLengths {
		noise := make([]float64, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
		}
		// Every position a tile walk could mishandle: the last sample of a
		// tile, the first of the next, and the last start positions.
		var edges []int
		for e := tileSamples; e < n; e += tileSamples {
			edges = append(edges, e-1, e)
		}
		edges = append(edges, n-1)
		shapes := map[string]func(z []float64){
			"noise": func([]float64) {},
			"peaks": func(z []float64) {
				for _, e := range edges {
					z[e] = 8
				}
			},
			"plateaus": func(z []float64) {
				// Equal neighbours straddling each edge (a width-1 plateau)
				// inside a constant run (equal window sums for every width).
				for _, e := range edges {
					for i := max(e-90, 0); i < min(e+90, len(z)); i++ {
						z[i] = 1
					}
				}
				for _, e := range edges {
					z[e] = 8
					z[max(e-1, 0)] = 8
				}
			},
			"ramps": func(z []float64) {
				// Above-threshold slopes crossing each edge, so the position
				// after an edge is a maximum only to a scan that forgot the
				// sum before it — falling first, then rising.
				for k, e := 0, tileSamples; e < len(z); k, e = k+1, e+tileSamples {
					for i := e - 80; i < min(e+80, len(z)); i++ {
						z[i] = 4 + 0.01*float64(e-i)*float64(1-2*(k%2))
					}
				}
			},
			"rising tail": func(z []float64) {
				// The global maximum of every width sits on its last start.
				for i := max(len(z)-70, 0); i < len(z); i++ {
					z[i] = 2 + 0.01*float64(i-len(z)+70)
				}
			},
		}
		for name, shape := range shapes {
			z := append([]float64(nil), noise...)
			shape(z)
			for _, widths := range ladders {
				tag := fmt.Sprintf("n=%d %s widths=%v", n, name, widths)
				want := refBoxcarDetect(z, widths, threshold)
				got := BoxcarDetect(z, widths, threshold)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d detections, reference %d\n got %+v\nwant %+v", tag, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestBoxLadderSumsStayTileSized pins the point of the tile walk: however
// long the series, the ladder's window-sum buffers stay tile-sized.
func TestBoxLadderSumsStayTileSized(t *testing.T) {
	widths := DefaultWidths()
	z := make([]float64, 5*tileSamples+17)
	lad := newBoxLadder(widths)
	lad.detect(z, DefaultThreshold)
	maxW := widths[len(widths)-1]
	for oi, w := range lad.order {
		if w > 1 && cap(lad.sums[oi]) > tileSamples+maxW {
			t.Errorf("width %d holds %d window sums, want <= %d", w, cap(lad.sums[oi]), tileSamples+maxW)
		}
	}
}

// refSumSubbands is stage 2's summation one subband per pass over the whole
// output — the loop the batch and stream stage 2 each carried before they
// shared sumSubbands.
func refSumSubbands(series [][]float32, subShifts []int, off int, out []float64) {
	for t := range out {
		out[t] = 0
	}
	for s := range series {
		src := series[s][off+subShifts[s]:]
		for t := range out {
			out[t] += float64(src[t])
		}
	}
}

func TestSumSubbandsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, nsub := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		for _, n := range refSeriesLengths {
			series := make([][]float32, nsub)
			shifts := make([]int, nsub)
			const off = 11
			for s := range series {
				shifts[s] = rng.Intn(40)
				series[s] = make([]float32, off+shifts[s]+n)
				for i := range series[s] {
					// Magnitudes far enough apart that the float64 sum
					// rounds, so a reordered summation would show.
					series[s][i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30))))
				}
			}
			want := make([]float64, n)
			refSumSubbands(series, shifts, off, want)
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // sumSubbands must overwrite, not add to, out
			}
			sumSubbands(series, shifts, off, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nsub=%d n=%d: tiled four-subband summation diverges from the reference", nsub, n)
			}
		}
	}
}
