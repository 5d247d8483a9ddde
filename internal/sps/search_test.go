package sps

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"drapid/internal/spe"
)

// recallFixture is the synthetic observation the recall tests share: a
// ~4.2 s band with a dozen injected pulses spanning the DM range, plus a
// broadband RFI burst the search must not let mask them.
func recallFixture() SynthConfig {
	return SynthConfig{
		NChans: 128, NSamples: 16384, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		Seed: 11,
		Pulses: []InjectedPulse{
			{TimeSec: 0.30, DM: 12, WidthMs: 2, SNR: 14},
			{TimeSec: 0.55, DM: 35, WidthMs: 3, SNR: 11},
			{TimeSec: 0.80, DM: 58, WidthMs: 5, SNR: 22},
			{TimeSec: 1.05, DM: 74, WidthMs: 1.5, SNR: 16},
			{TimeSec: 1.30, DM: 96, WidthMs: 4, SNR: 12},
			{TimeSec: 1.60, DM: 121, WidthMs: 6, SNR: 18},
			{TimeSec: 1.90, DM: 140, WidthMs: 2.5, SNR: 25},
			{TimeSec: 2.20, DM: 168, WidthMs: 3.5, SNR: 13},
			{TimeSec: 2.50, DM: 190, WidthMs: 5, SNR: 15},
			{TimeSec: 2.85, DM: 215, WidthMs: 4, SNR: 20},
			{TimeSec: 3.15, DM: 245, WidthMs: 7, SNR: 17},
			{TimeSec: 3.50, DM: 272, WidthMs: 3, SNR: 19},
		},
		RFI: []RFIBurst{{TimeSec: 2.05, WidthMs: 4, Amp: 3}},
	}
}

// matchesInjection reports whether an event recovers the injected pulse:
// within a few trial-DM steps of the truth and within the pulse width
// (plus boxcar slack) of its centre.
func matchesInjection(e spe.SPE, p InjectedPulse, dmStep, tsamp float64) bool {
	center := p.TimeSec + p.WidthMs/2000
	tol := 0.020 + p.WidthMs/1000
	return math.Abs(e.DM-p.DM) <= 5*dmStep && math.Abs(e.Time-center) <= tol
}

// TestSearchRecall asserts the frontend's core promise: at least 90% of
// injected pulses above the detection threshold come back as candidates.
func TestSearchRecall(t *testing.T) {
	cfg := recallFixture()
	fb, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const dmStep = 1.0
	dms, err := LinearDMs(0, 300, dmStep)
	if err != nil {
		t.Fatal(err)
	}
	events, stats, err := Search(context.Background(), fb, Config{DMs: dms, Threshold: 6.5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trials != len(dms) {
		t.Fatalf("searched %d of %d trials", stats.Trials, len(dms))
	}
	recovered := 0
	for _, p := range cfg.Pulses {
		found := false
		for _, e := range events {
			if matchesInjection(e, p, dmStep, cfg.TsampSec) {
				found = true
				break
			}
		}
		if found {
			recovered++
		} else {
			t.Logf("missed injection: %+v", p)
		}
	}
	recall := float64(recovered) / float64(len(cfg.Pulses))
	t.Logf("recall %d/%d = %.0f%% (%d events over %d trials)",
		recovered, len(cfg.Pulses), 100*recall, len(events), stats.Trials)
	if recall < 0.9 {
		t.Fatalf("recall %.2f below 0.90", recall)
	}
}

// TestSearchFindsPulseAcrossTrials asserts the dedispersion-mismatch
// structure downstream clustering depends on: one pulse is detected at
// several neighbouring trial DMs with SNR peaking at the truth.
func TestSearchFindsPulseAcrossTrials(t *testing.T) {
	cfg := SynthConfig{
		NChans: 128, NSamples: 8192, TsampSec: 256e-6,
		Seed:   3,
		Pulses: []InjectedPulse{{TimeSec: 0.5, DM: 80, WidthMs: 4, SNR: 25}},
	}
	fb, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dms, _ := LinearDMs(60, 100, 1)
	events, _, err := Search(context.Background(), fb, Config{DMs: dms, Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	trialsHit := map[float64]float64{}
	for _, e := range events {
		if math.Abs(e.Time-0.502) < 0.03 && e.SNR > trialsHit[e.DM] {
			trialsHit[e.DM] = e.SNR
		}
	}
	if len(trialsHit) < 3 {
		t.Fatalf("pulse seen at only %d trials; DBSCAN needs a cluster", len(trialsHit))
	}
	bestDM, bestSNR := 0.0, 0.0
	for dm, snr := range trialsHit {
		if snr > bestSNR {
			bestDM, bestSNR = dm, snr
		}
	}
	if math.Abs(bestDM-80) > 2 {
		t.Fatalf("SNR peaks at DM %g, want ~80", bestDM)
	}
	if bestSNR < 15 {
		t.Fatalf("peak SNR %g, want near the injected 25", bestSNR)
	}
}

// TestSearchRFIConfinedToLowDM checks broadband interference appears
// strongest at DM 0 and fades with trial DM — the signature the
// downstream classifier separates from astrophysical pulses.
func TestSearchRFIConfinedToLowDM(t *testing.T) {
	cfg := SynthConfig{
		NChans: 128, NSamples: 8192, TsampSec: 256e-6,
		Seed: 13,
		RFI:  []RFIBurst{{TimeSec: 0.7, WidthMs: 5, Amp: 4}},
	}
	fb, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dms, _ := LinearDMs(0, 200, 2)
	events, _, err := Search(context.Background(), fb, Config{DMs: dms, Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	var zeroSNR, highSNR float64
	for _, e := range events {
		if math.Abs(e.Time-0.7) > 0.05 {
			continue
		}
		if e.DM == 0 && e.SNR > zeroSNR {
			zeroSNR = e.SNR
		}
		if e.DM >= 100 && e.SNR > highSNR {
			highSNR = e.SNR
		}
	}
	if zeroSNR < 10 {
		t.Fatalf("RFI burst not detected at DM 0 (best %.1f)", zeroSNR)
	}
	if highSNR >= zeroSNR/2 {
		t.Fatalf("RFI at high DM (%.1f) not sufficiently smeared vs DM 0 (%.1f)", highSNR, zeroSNR)
	}
}

// TestZeroDMFilterCancelsRFI checks the zero-DM filter removes a bright
// broadband burst while keeping a time-coincident dispersed pulse
// detectable — the masking scenario that motivates it.
func TestZeroDMFilterCancelsRFI(t *testing.T) {
	cfg := SynthConfig{
		NChans: 128, NSamples: 8192, TsampSec: 256e-6,
		Seed:   17,
		Pulses: []InjectedPulse{{TimeSec: 0.9, DM: 90, WidthMs: 4, SNR: 16}},
		RFI:    []RFIBurst{{TimeSec: 1.0, WidthMs: 4, Amp: 3}},
	}
	fb, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dms, _ := LinearDMs(0, 150, 1)
	count := func(zeroDM bool) (rfiEvents, pulseEvents int) {
		events, _, err := Search(context.Background(), fb, Config{DMs: dms, Threshold: 6.5, ZeroDM: zeroDM})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			// RFI detections trail back in time from the burst as trial DM
			// grows; anything outside the pulse's own neighbourhood at a
			// DM far from 90 is interference.
			switch {
			case math.Abs(e.DM-90) <= 8 && math.Abs(e.Time-0.902) < 0.03:
				pulseEvents++
			case math.Abs(e.DM-90) > 20:
				rfiEvents++
			}
		}
		return
	}
	rfiRaw, pulseRaw := count(false)
	rfiFiltered, pulseFiltered := count(true)
	if pulseRaw == 0 || pulseFiltered == 0 {
		t.Fatalf("pulse lost (raw %d, filtered %d events)", pulseRaw, pulseFiltered)
	}
	if rfiFiltered >= rfiRaw/10 {
		t.Fatalf("zero-DM filter left %d of %d RFI events", rfiFiltered, rfiRaw)
	}
	if pulseFiltered < pulseRaw/2 {
		t.Fatalf("zero-DM filter cost too much pulse: %d of %d events", pulseFiltered, pulseRaw)
	}
}

// TestGenerateBounded pins the two bounds a tiny synth spec (a POST
// /v1/detect body) must not get past: a data block over Read's value cap is
// refused before anything is allocated, and a box wider than the
// observation is clipped before it is walked, so a width of 10¹⁸ ms costs
// what a whole-observation width does (and its pulse amplitude stays
// finite).
func TestGenerateBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Generate(SynthConfig{NChans: 1 << 14, NSamples: maxSamples>>14 + 1, FoffMHz: -0.01})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "data block exceeds") {
		t.Fatalf("oversized synth block: err = %v, want the data-block bound", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refused synth block still allocated %d bytes", alloc)
	}

	base := SynthConfig{NChans: 8, NSamples: 1024, Seed: 3}
	obsMs := float64(base.NSamples) * base.Header().TsampSec * 1e3
	gen := func(rfiWidthMs, pulseWidthMs float64) *Filterbank {
		cfg := base
		cfg.RFI = []RFIBurst{{TimeSec: 0.05, WidthMs: rfiWidthMs, Amp: 2}}
		if pulseWidthMs > 0 {
			cfg.Pulses = []InjectedPulse{{TimeSec: 0.1, DM: 10, WidthMs: pulseWidthMs, SNR: 10}}
		}
		fb, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	if huge, whole := gen(1e18, 0), gen(obsMs, 0); !reflect.DeepEqual(huge.Data, whole.Data) {
		t.Fatal("a 1e18 ms RFI burst differs from one as wide as the observation")
	}
	for _, v := range gen(obsMs, 1e18).Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("a 1e18 ms pulse rendered %v", v)
		}
	}

	// A pulse train is bounded before it is expanded into pulses: 2⁴⁰
	// pulses a second apart end far outside the observation, and 2⁴⁰
	// pulses inside it cannot each have a sample.
	for name, tr := range map[string]PulseTrain{
		"span":    {StartSec: 0.1, PeriodSec: 1, Count: 1 << 40, DM: 10, WidthMs: 1, SNR: 10},
		"density": {StartSec: 0.1, PeriodSec: 1e-300, Count: 1 << 40, DM: 10, WidthMs: 1, SNR: 10},
	} {
		cfg := base
		cfg.Trains = []PulseTrain{tr}
		runtime.ReadMemStats(&before)
		_, err := Generate(cfg)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "train 0") {
			t.Fatalf("%s: 2⁴⁰-pulse train: err = %v, want the train bound", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: refused train still allocated %d bytes", name, alloc)
		}
	}
}

func TestLinearDMs(t *testing.T) {
	dms, err := LinearDMs(0, 10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(dms) != len(want) {
		t.Fatalf("dms = %v", dms)
	}
	for i := range want {
		if dms[i] != want[i] {
			t.Fatalf("dms[%d] = %g, want %g", i, dms[i], want[i])
		}
	}
	for _, bad := range [][3]float64{{0, 10, 0}, {10, 0, 1}, {-1, 10, 1}} {
		if _, err := LinearDMs(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("LinearDMs(%v) accepted", bad)
		}
	}
}
