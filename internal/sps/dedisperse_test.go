package sps

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"drapid/internal/rdd"
)

// TestDelayGolden pins the delay formula to hand-computed values:
// Δt = 4.148808×10³ s · DM · (f⁻² − f_ref⁻²) with f in MHz.
func TestDelayGolden(t *testing.T) {
	cases := []struct {
		dm, f, ref, want float64
	}{
		// 4148.808 · 100 · (1000⁻² − 2000⁻²) = 414880.8 · 7.5e-7
		{100, 1000, 2000, 0.3111606},
		// 4148.808 · 50 · (500⁻² − 1000⁻²) = 207440.4 · 3e-6
		{50, 500, 1000, 0.6223212},
		// 4148.808 · 25 · (250⁻² − 500⁻²) = 103720.2 · 1.2e-5
		{25, 250, 500, 1.2446424},
		// Same frequency: zero delay at any DM.
		{300, 1400, 1400, 0},
		// Zero DM: zero delay at any frequency pair.
		{0, 400, 1600, 0},
	}
	for _, c := range cases {
		got := DelaySeconds(c.dm, c.f, c.ref)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("DelaySeconds(%g, %g, %g) = %.9f, want %.9f", c.dm, c.f, c.ref, got, c.want)
		}
	}
	// The reference frequency arriving *after* f gives a negative delay.
	if got := DelaySeconds(100, 2000, 1000); got >= 0 {
		t.Errorf("delay above the reference frequency = %g, want negative", got)
	}
}

func TestChannelShiftsGolden(t *testing.T) {
	h := Header{
		TsampSec: 1e-3,
		Fch1MHz:  2000,
		FoffMHz:  -1000,
		NChans:   2,
		NBits:    32, NIFs: 1, NSamples: 1000,
	}
	// Channel 0 is the 2000 MHz reference: zero shift. Channel 1 at
	// 1000 MHz delays by 4148.808·100·(1e-6 − 2.5e-7) = 0.3111606 s
	// = 311.1606 ms → 311 samples.
	shifts := ChannelShifts(h, 100, nil)
	if shifts[0] != 0 || shifts[1] != 311 {
		t.Fatalf("shifts = %v, want [0 311]", shifts)
	}
	if got := MaxShift(h, 100); got != 311 {
		t.Fatalf("MaxShift = %d", got)
	}
	// An ascending band must still reference its top channel.
	up := h
	up.Fch1MHz, up.FoffMHz = 1000, 1000 // 1000, 2000 MHz
	shifts = ChannelShifts(up, 100, shifts)
	if shifts[0] != 311 || shifts[1] != 0 {
		t.Fatalf("ascending-band shifts = %v, want [311 0]", shifts)
	}
}

func TestDedisperseAlignsPulse(t *testing.T) {
	// Two channels, shift 3 for the low one: a pulse at sample 5 in the
	// reference channel and 8 in the delayed channel must stack at
	// output sample 5.
	h := Header{TsampSec: 1e-3, Fch1MHz: 2000, FoffMHz: -1000, NChans: 2, NBits: 32, NIFs: 1, NSamples: 12}
	fb := &Filterbank{Header: h, Data: make([]float32, 12*2)}
	fb.Data[5*2+0] = 1 // reference channel
	fb.Data[8*2+1] = 1 // delayed channel
	out, err := refDedisperse(fb, []int{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 { // 12 − maxShift 3
		t.Fatalf("output length = %d, want 9", len(out))
	}
	for i, v := range out {
		want := 0.0
		if i == 5 {
			want = 2
		}
		if v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestDedisperseErrors(t *testing.T) {
	h := Header{TsampSec: 1e-3, Fch1MHz: 2000, FoffMHz: -1000, NChans: 2, NBits: 32, NIFs: 1, NSamples: 4}
	fb := &Filterbank{Header: h, Data: make([]float32, 8)}
	if _, err := refDedisperse(fb, []int{0}, nil); err == nil {
		t.Error("wrong shift count accepted")
	}
	if _, err := refDedisperse(fb, []int{0, -1}, nil); err == nil {
		t.Error("negative shift accepted")
	}
	if _, err := refDedisperse(fb, []int{0, 4}, nil); err == nil {
		t.Error("sweep longer than observation accepted")
	}
}

// TestSearchSerialMatchesParallel is the DM-trial fan-out equivalence
// check: any worker count must produce record-for-record identical events.
func TestSearchSerialMatchesParallel(t *testing.T) {
	cfg := SynthConfig{
		NChans: 64, NSamples: 4096, TsampSec: 256e-6, FoffMHz: -4,
		Seed: 42,
		Pulses: []InjectedPulse{
			{TimeSec: 0.10, DM: 30, WidthMs: 2, SNR: 15},
			{TimeSec: 0.40, DM: 120, WidthMs: 4, SNR: 12},
			{TimeSec: 0.75, DM: 220, WidthMs: 6, SNR: 20},
		},
		RFI: []RFIBurst{{TimeSec: 0.6, WidthMs: 3, Amp: 2}},
	}
	fb, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dms, err := LinearDMs(0, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	search := func(workers int) []eventKey {
		t.Helper()
		events, stats, err := Search(context.Background(), fb, Config{
			DMs:  dms,
			Exec: rdd.ExecConfig{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Trials != len(dms) || stats.Events != len(events) {
			t.Fatalf("stats = %+v for %d events over %d trials", stats, len(events), len(dms))
		}
		keys := make([]eventKey, len(events))
		for i, e := range events {
			keys[i] = eventKey{e.DM, e.SNR, e.Time, e.Sample, e.Downfact}
		}
		return keys
	}
	serial := search(1)
	if len(serial) == 0 {
		t.Fatal("serial search found nothing")
	}
	for _, w := range []int{2, 4, 8} {
		if got := search(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverges from serial: %d vs %d events", w, len(got), len(serial))
		}
	}
}

type eventKey struct {
	dm, snr, tm float64
	sample      int64
	downfact    int
}

func TestSearchCancellation(t *testing.T) {
	fb, err := Generate(SynthConfig{NChans: 32, NSamples: 2048, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dms, _ := LinearDMs(0, 100, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Search(ctx, fb, Config{DMs: dms}); err == nil {
		t.Fatal("cancelled search returned nil error")
	}
}

func TestSearchRejectsBadConfig(t *testing.T) {
	fb, err := Generate(SynthConfig{NChans: 8, NSamples: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"no trials":       {},
		"descending DMs":  {DMs: []float64{10, 5}},
		"negative DM":     {DMs: []float64{-5, 10}},
		"bad width":       {DMs: []float64{0}, Widths: []int{0}},
		"negative thresh": {DMs: []float64{0}, Threshold: -1},
	}
	for name, cfg := range cases {
		if _, _, err := Search(context.Background(), fb, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStageRawMatchesDecoded pins the fused decode: staging a block's raw
// SIGPROC bytes — each tile decoded into worker scratch — is bit-identical
// to staging the values Read decodes from the same bytes, for both sample
// widths, with and without the fused zero-DM filter, on one channel and on
// an odd channel count, over a row count that leaves a partial last tile.
func TestStageRawMatchesDecoded(t *testing.T) {
	exec := rdd.ExecConfig{Workers: 3}
	for _, nbits := range []int{8, 32} {
		for _, nchans := range []int{1, 37} {
			fb, err := Generate(SynthConfig{NChans: nchans, NSamples: 3*stageRows + 77, TsampSec: 256e-6, NoiseSigma: 20, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			fb.NBits = nbits
			var buf bytes.Buffer
			if err := Write(&buf, fb); err != nil {
				t.Fatal(err)
			}
			decoded, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			hdr, data, err := ParseRaw(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			for _, zeroDM := range []bool{false, true} {
				var want, got chanMajor
				if err := want.stage(context.Background(), exec, &Block{Rows: decoded.NSamples, Data: decoded.Data}, nchans, zeroDM, nil); err != nil {
					t.Fatal(err)
				}
				if err := got.stage(context.Background(), exec, &Block{Rows: hdr.NSamples, Raw: data, NBits: nbits}, nchans, zeroDM, nil); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("nbits %d nchans %d zeroDM %v: raw staging differs from staging Read's values", nbits, nchans, zeroDM)
				}
			}
		}
	}
}
