package spe

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed holds appendFixed to strconv's 'f' at prec, appending after a
// prefix so a formatter that overwrote dst would show.
func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x,"), v, 'f', prec, 64)
	if got := appendFixed([]byte("x,"), v, prec); string(got) != string(want) {
		t.Fatalf("appendFixed(%v (%#x), %d) = %q, strconv %q", v, math.Float64bits(v), prec, got, want)
	}
}

// fixedEdges are the values the fast path must hand to strconv or get
// exactly right: zeros, non-finite values, subnormals, the ends of the
// 2–17 digit range, ties, and carries into a new decade such as 9.99995
// at precision 4.
var fixedEdges = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, 1e20, -1e20, 1e16, 1e17, 99999999999999.99,
	9.99995, 9.99994999, 99.9995, 0.99995, 0.0999995, 999999.9999995, 0.5, 1.5, 2.5, 0.125, 0.0625, 0.00005,
	-0.00005, 0.00015, 1e-5, 1e-4, 1e-3, 0.1, 0.01, 1, 10, 100, 1000, 55000.12345, 140.49995, 12.3456785}

// TestAppendFixedMatchesStrconv compares appendFixed with strconv's 'f'
// on the edge values, on survey-scale values, and across many decades, at
// precisions 0 to 8.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	for _, v := range fixedEdges {
		for prec := 0; prec <= 8; prec++ {
			checkFixed(t, v, prec)
			checkFixed(t, -v, prec)
			checkFixed(t, math.Nextafter(v, 0), prec)
			checkFixed(t, math.Nextafter(v, math.Inf(1)), prec)
		}
	}
	rng := rand.New(rand.NewSource(5))
	n := 300_000
	if testing.Short() {
		n = 30_000
	}
	for i := 0; i < n; i++ {
		prec := rng.Intn(9)
		var v float64
		switch i % 4 {
		case 0: // survey scale: DM, SNR, times, MJDs
			v = rng.Float64() * 60000
		case 1: // any decade
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(41)-20))
		case 2: // a short decimal, so the rounding digit is often a tie
			v = float64(rng.Int63n(1e9)) / math.Pow(10, float64(rng.Intn(10)))
		default: // any bit pattern
			v = math.Float64frombits(rng.Uint64())
		}
		checkFixed(t, v, prec)
	}
}

// FuzzAppendFixed holds appendFixed to strconv's 'f' on any value at
// precisions 0 to 20.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdges {
		f.Add(v, uint8(4))
	}
	f.Add(9.99995, uint8(4))
	f.Add(0.0000123, uint8(6))
	f.Add(1e20, uint8(3))
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		checkFixed(t, v, int(prec%21))
	})
}
