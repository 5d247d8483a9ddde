package spe

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameBits compares floats bit for bit, so −0 ≠ +0 and NaN == NaN.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkQuantize holds Quantize and QuantizeCluster to the text path they
// replace: the event and cluster ParseDataLine and ParseClusterLine read
// back from the formatted records, field for field and bit for bit.
func checkQuantize(t *testing.T, e SPE, c Cluster) {
	t.Helper()
	k := Key{Dataset: "PALFA", MJD: 55000.1234, RA: 140.5, Dec: 30.25, Beam: 3}
	_, want, err := ParseDataLine(FormatDataLine(k, e))
	if err != nil {
		t.Fatalf("formatted event %+v does not parse: %v", e, err)
	}
	got := Quantize(e)
	if !sameBits(got.DM, want.DM) || !sameBits(got.SNR, want.SNR) || !sameBits(got.Time, want.Time) ||
		got.Sample != want.Sample || got.Downfact != want.Downfact {
		t.Fatalf("Quantize(%+v) = %+v, the data line reads back %+v", e, got, want)
	}
	c.Key = k
	wantC, err := ParseClusterLine(FormatClusterLine(&c))
	if err != nil {
		t.Fatalf("formatted cluster %+v does not parse: %v", c, err)
	}
	gotC := QuantizeCluster(c)
	if !sameBits(gotC.DMMin, wantC.DMMin) || !sameBits(gotC.DMMax, wantC.DMMax) ||
		!sameBits(gotC.TMin, wantC.TMin) || !sameBits(gotC.TMax, wantC.TMax) ||
		!sameBits(gotC.SNRMax, wantC.SNRMax) || gotC.ID != wantC.ID || gotC.N != wantC.N ||
		gotC.Rank != wantC.Rank || gotC.Key != c.Key {
		t.Fatalf("QuantizeCluster(%+v) = %+v, the cluster line reads back %+v", c, gotC, *wantC)
	}
}

// quantizeValue draws mostly values between 1e-8 and 1e12, where the
// rounding at three to six decimals decides the result, and one in 64
// from randFloat's special and wide-exponent mix.
func quantizeValue(rng *rand.Rand) float64 {
	if rng.Intn(64) == 0 {
		return randFloat(rng)
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(21)-8))
}

// TestQuantizeMatchesFormatParse: roundTrip is ParseFloat∘AppendFloat at
// each wire precision over 10⁶ random values, NaN, ±Inf, −0 and 1e±300
// included; and the quantisers give exactly what a record's
// format-and-parse round trip gives.
func TestQuantizeMatchesFormatParse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	precs := [...]int{3, 4, 6}
	check := func(v float64, prec int) {
		want, err := strconv.ParseFloat(string(strconv.AppendFloat(nil, v, 'f', prec, 64)), 64)
		if err != nil {
			t.Fatalf("%v at %%.%df: %v", v, prec, err)
		}
		if got := roundTrip(v, prec); !sameBits(got, want) {
			t.Fatalf("roundTrip(%v, %d) = %v, want %v", v, prec, got, want)
		}
	}
	for _, v := range specialFloats {
		for _, prec := range precs {
			check(v, prec)
		}
		checkQuantize(t, SPE{DM: v, SNR: v, Time: v}, Cluster{DMMin: v, DMMax: v, TMin: v, TMax: v, SNRMax: v})
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		check(quantizeValue(rng), precs[i%len(precs)])
	}
	for i := 0; i < n/100; i++ {
		e := SPE{DM: quantizeValue(rng), SNR: quantizeValue(rng), Time: quantizeValue(rng), Sample: randInt(rng), Downfact: int(randInt(rng))}
		c := Cluster{ID: int(randInt(rng)), N: int(randInt(rng)), DMMin: quantizeValue(rng), DMMax: quantizeValue(rng),
			TMin: quantizeValue(rng), TMax: quantizeValue(rng), SNRMax: quantizeValue(rng), Rank: int(randInt(rng))}
		checkQuantize(t, e, c)
	}
}

// TestQuantizeAllocatesNothing: the stack buffer holds every survey-scale
// value, so quantising an event on the detect path does not allocate.
func TestQuantizeAllocatesNothing(t *testing.T) {
	e := SPE{DM: 120.5, SNR: 8.125, Time: 12.3456, Sample: 192900, Downfact: 4}
	c := Cluster{DMMin: 118, DMMax: 123, TMin: 12.1, TMax: 12.5, SNRMax: 9.875}
	if allocs := testing.AllocsPerRun(100, func() { e = Quantize(e); c = QuantizeCluster(c) }); allocs != 0 {
		t.Errorf("Quantize + QuantizeCluster allocate %.1f times, want 0", allocs)
	}
}

// FuzzQuantize holds the quantisers to the record round trip on arbitrary
// values.
func FuzzQuantize(f *testing.F) {
	f.Add(120.5, 8.125, 12.3456, int64(192900), 4)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), int64(-1), -1)
	f.Add(math.Copysign(0, -1), 1e300, 1e-300, int64(math.MaxInt64), math.MinInt)
	f.Add(0.00005, -0.00005, 1.0000005, int64(0), 0)
	f.Fuzz(func(t *testing.T, a, b, c float64, sample int64, n int) {
		checkQuantize(t, SPE{DM: a, SNR: b, Time: c, Sample: sample, Downfact: n},
			Cluster{ID: n, N: n, DMMin: a, DMMax: b, TMin: c, TMax: a, SNRMax: b, Rank: n})
	})
}
