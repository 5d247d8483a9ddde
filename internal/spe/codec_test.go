package spe

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specialFloats are the values fmt and strconv are most likely to part on.
var specialFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e300, -1e300, 1e-300, -1e-300, 0.00005, -0.00005, 0.5, 1.00005, 123456.78905, math.MaxFloat64,
	math.SmallestNonzeroFloat64}

// randFloat draws a special value, a wide-exponent value or a survey-like
// value.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 1:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(601)-300))
	}
	return rng.Float64() * 1000
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return []int64{0, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)]
	case 1:
		return rng.Int63() - rng.Int63()
	}
	return rng.Int63n(100000)
}

// TestAppendMatchesSprintf: the strconv formatters write exactly the bytes
// the fmt.Sprintf forms wrote, NaN, ±Inf, −0 and 1e±300 included.
func TestAppendMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	datasets := []string{"PALFA", "GBT350Drift", "", "S:A", "x y"}
	var buf []byte
	for i := 0; i < 4000; i++ {
		k := Key{Dataset: datasets[rng.Intn(len(datasets))], MJD: randFloat(rng), RA: randFloat(rng),
			Dec: randFloat(rng), Beam: int(randInt(rng))}
		e := SPE{DM: randFloat(rng), SNR: randFloat(rng), Time: randFloat(rng), Sample: randInt(rng), Downfact: int(randInt(rng))}
		if got, want := FormatDataLine(k, e), refFormatDataLine(k, e); got != want {
			t.Fatalf("FormatDataLine(%+v, %+v) = %q, Sprintf %q", k, e, got, want)
		}
		buf = AppendDataLine(buf[:0], k, e)
		if got, want := string(buf), refFormatDataLine(k, e); got != want {
			t.Fatalf("AppendDataLine into a reused buffer = %q, Sprintf %q", got, want)
		}
		c := &Cluster{ID: int(randInt(rng)), Key: k, N: int(randInt(rng)), DMMin: randFloat(rng), DMMax: randFloat(rng),
			TMin: randFloat(rng), TMax: randFloat(rng), SNRMax: randFloat(rng), Rank: int(randInt(rng))}
		if got, want := FormatClusterLine(c), refFormatClusterLine(c); got != want {
			t.Fatalf("FormatClusterLine(%+v) = %q, Sprintf %q", c, got, want)
		}
	}
}

// TestParsersMatchSplitOracle drives the field scanners and the
// Split-based oracles over valid records and their mutations — fields
// deleted, duplicated, emptied or garbled, commas and colons inserted — so
// every accept and reject branch is compared on every run, not only under
// go test -fuzz.
func TestParsersMatchSplitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	garbage := []string{"", ",", ",,", "x", "NaN", "-0", "+Inf", "1e400", "0x1p-2", "99999999999999999999", " 1", ":", "1_000"}
	mutate := func(line string) string {
		if line == "" {
			return garbage[rng.Intn(len(garbage))]
		}
		i := rng.Intn(len(line) + 1)
		switch rng.Intn(4) {
		case 0: // cut
			j := i + rng.Intn(len(line)-i+1)
			return line[:i] + line[j:]
		case 1: // insert
			return line[:i] + garbage[rng.Intn(len(garbage))] + line[i:]
		case 2: // duplicate a tail
			return line + line[i:]
		}
		return line[:i] // truncate
	}
	for i := 0; i < 4000; i++ {
		k := Key{Dataset: "PALFA", MJD: randFloat(rng), RA: randFloat(rng), Dec: randFloat(rng), Beam: rng.Intn(7)}
		data := FormatDataLine(k, SPE{DM: randFloat(rng), SNR: randFloat(rng), Time: randFloat(rng), Sample: randInt(rng), Downfact: rng.Intn(64)})
		cluster := FormatClusterLine(&Cluster{ID: rng.Intn(100), Key: k, N: rng.Intn(1000), DMMin: randFloat(rng),
			DMMax: randFloat(rng), TMin: randFloat(rng), TMax: randFloat(rng), SNRMax: randFloat(rng), Rank: rng.Intn(50)})
		for n := rng.Intn(3); n > 0; n-- {
			data, cluster = mutate(data), mutate(cluster)
		}
		checkDataLine(t, data)
		checkClusterLine(t, cluster)
		_, payload, _ := CutKeyed(data)
		checkDataLine(t, payload)
		_, payload, _ = CutKeyed(cluster)
		checkClusterLine(t, payload)
	}
}

// TestSortByDMMatchesSortSlice: slices.SortFunc with SortByDM's comparator
// leaves every input in the permutation sort.Slice with the old less
// function left it in — exact (DM, Time) ties that differ elsewhere, NaN
// and ±0 included — across the insertion-sort, pdqsort and heapsort
// fallback sizes.
func TestSortByDMMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2, 3, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(200)
		if trial%100 == 0 {
			n = 2000 + rng.Intn(3000)
		}
		events := make([]SPE, n)
		for i := range events {
			// Few distinct (DM, Time) values make ties the rule; the unique
			// Sample tells the permutation apart.
			events[i] = SPE{DM: values[rng.Intn(len(values))], Time: values[rng.Intn(4)], SNR: float64(rng.Intn(3)), Sample: int64(i)}
			if trial%3 == 0 {
				events[i].DM = float64(rng.Intn(4)) // no NaN: a valid strict weak order
			}
			if trial%7 == 0 && i > 0 {
				events[i].DM = events[i-1].DM + float64(rng.Intn(2)) // runs of presorted data
			}
		}
		want := slices.Clone(events)
		refSortByDM(want)
		SortByDM(events)
		for i := range events {
			if events[i].Sample != want[i].Sample {
				t.Fatalf("trial %d (n=%d): position %d holds sample %d, sort.Slice put %d there", trial, n, i, events[i].Sample, want[i].Sample)
			}
		}
	}
}

// TestSortByTimeMatchesSortSlice is TestSortByDMMatchesSortSlice for
// SortByTime: ties in (Time, DM) broken by Downfact and SNR, exact ties
// in all four, NaN and ±0 in every key, presorted runs, and the
// insertion-sort, pdqsort and heapsort fallback sizes.
func TestSortByTimeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	values := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2, 3, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(200)
		if trial%100 == 0 {
			n = 2000 + rng.Intn(3000)
		}
		events := make([]SPE, n)
		for i := range events {
			events[i] = SPE{Time: values[rng.Intn(len(values))], DM: values[rng.Intn(4)], Downfact: rng.Intn(3),
				SNR: values[rng.Intn(len(values))], Sample: int64(i)}
			if trial%3 == 0 {
				events[i].Time, events[i].SNR = float64(rng.Intn(4)), float64(rng.Intn(2)) // no NaN: a valid strict weak order
			}
			if trial%7 == 0 && i > 0 {
				events[i].Time = events[i-1].Time + float64(rng.Intn(2)) // runs of presorted data
			}
		}
		want := slices.Clone(events)
		refSortByTime(want)
		SortByTime(events)
		for i := range events {
			if events[i].Sample != want[i].Sample {
				t.Fatalf("trial %d (n=%d): position %d holds sample %d, sort.Slice put %d there", trial, n, i, events[i].Sample, want[i].Sample)
			}
		}
	}
}

// TestFormatDataLinesMatchesFormatDataLine: the one-buffer formatter
// appends after what dst holds, and each record equals FormatDataLine's.
func TestFormatDataLinesMatchesFormatDataLine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := Key{Dataset: "PALFA", MJD: randFloat(rng), RA: randFloat(rng), Dec: randFloat(rng), Beam: int(randInt(rng))}
		events := make([]SPE, rng.Intn(50))
		for i := range events {
			events[i] = SPE{DM: randFloat(rng), SNR: randFloat(rng), Time: randFloat(rng), Sample: randInt(rng), Downfact: int(randInt(rng))}
		}
		got := FormatDataLines([]string{"head"}, k, events)
		if len(got) != 1+len(events) || got[0] != "head" {
			t.Fatalf("FormatDataLines gave %d lines starting %q, want %d after the kept head", len(got), got[0], len(events))
		}
		for i, e := range events {
			if want := FormatDataLine(k, e); got[1+i] != want {
				t.Fatalf("record %d = %q, FormatDataLine %q", i, got[1+i], want)
			}
		}
	}
}

// TestPayloadParsesAllocateNothing: the per-event decode on the identify
// path, and the whole-record parse, allocate nothing when they succeed.
func TestPayloadParsesAllocateNothing(t *testing.T) {
	key := Key{Dataset: "PALFA", MJD: 55000.1234, RA: 140.5, Dec: 30.25, Beam: 3}
	dataLine := FormatDataLine(key, SPE{DM: 120.5, SNR: 8.125, Time: 12.3456, Sample: 192900, Downfact: 4})
	clusterLine := FormatClusterLine(&Cluster{ID: 7, Key: key, N: 19, DMMin: 118, DMMax: 123, TMin: 12.1, TMax: 12.5, SNRMax: 9.875, Rank: 2})
	_, dataPayload, _ := CutKeyed(dataLine)
	_, clusterPayload, _ := CutKeyed(clusterLine)
	for name, parse := range map[string]func() error{
		"ParseDataPayload":    func() error { _, err := ParseDataPayload(dataPayload); return err },
		"ParseClusterPayload": func() error { _, err := ParseClusterPayload(clusterPayload); return err },
		"ParseDataLine":       func() error { _, _, err := ParseDataLine(dataLine); return err },
		"CutKeyed": func() error {
			if _, _, ok := CutKeyed(dataLine); !ok {
				t.Fatal("CutKeyed rejected a record")
			}
			return nil
		},
	} {
		if err := parse(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = parse() }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per successful parse, want 0", name, allocs)
		}
	}
}
