package dbscan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drapid/internal/dmgrid"
	"drapid/internal/spe"
	"drapid/internal/synth"
)

// checkMatchesRef holds Cluster to refCluster on one input: Labels,
// Members and every cluster record DeepEqual, floats compared by their
// bits so that a NaN bound (from a NaN member) can equal itself.
func checkMatchesRef(t *testing.T, events []spe.SPE, g *dmgrid.Grid, p Params) {
	t.Helper()
	got := Cluster(events, g, spe.Key{Dataset: "S"}, p)
	want := refCluster(events, g, spe.Key{Dataset: "S"}, p)
	if !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
		t.Fatalf("Cluster differs from refCluster on %d events, %+v:\nlabels %v\nref    %v\nmembers %v\nref     %v",
			len(events), p, got.Labels, want.Labels, got.Members, want.Members)
	}
}

// bitsOf is r with every cluster's float fields replaced by their bits.
func bitsOf(r *Result) any {
	type bits struct {
		ID, N, Rank                      int
		Key                              spe.Key
		DMMin, DMMax, TMin, TMax, SNRMax uint64
	}
	cs := make([]bits, len(r.Clusters))
	for i, c := range r.Clusters {
		cs[i] = bits{c.ID, c.N, c.Rank, c.Key, math.Float64bits(c.DMMin), math.Float64bits(c.DMMax),
			math.Float64bits(c.TMin), math.Float64bits(c.TMax), math.Float64bits(c.SNRMax)}
	}
	return []any{r.Labels, r.Members, cs}
}

// fuzzEvents decodes four bytes per event. The first picks the DM: a trial
// of the grid, a point between two trials, a duplicate of the previous
// event, or a special value (NaN, ±Inf, below or above the grid); the
// other three pick the time, mostly within a two-second window so that
// clusters form, sometimes NaN, ±Inf or a value whose cell overflows int.
func fuzzEvents(data []byte, g *dmgrid.Grid) []spe.SPE {
	var events []spe.SPE
	specialDM := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 1e9}
	specialTime := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1 << 63, -(1 << 63)}
	for ; len(data) >= 4 && len(events) < 1024; data = data[4:] {
		b := data[:4]
		trial := (int(b[0])*7 + int(b[1])) % g.NumTrials()
		var e spe.SPE
		switch b[0] % 8 {
		case 5:
			e.DM = g.Trial(trial) + float64(b[1])/256*g.SpacingAt(g.Trial(trial))
		case 6:
			e.DM = specialDM[int(b[1])%len(specialDM)]
		case 7:
			if len(events) > 0 {
				events = append(events, events[len(events)-1])
				continue
			}
			fallthrough
		default:
			e.DM = g.Trial(trial)
		}
		if b[2] == 255 {
			e.Time = specialTime[int(b[3])%len(specialTime)]
		} else {
			e.Time = float64(int(b[2])<<8|int(b[3])) / 65536 * 2
		}
		e.SNR = 5 + float64(b[3]%16)
		events = append(events, e)
	}
	return events
}

// FuzzClusterMatchesRef holds the flat-index Cluster to the map-indexed
// refCluster on arbitrary events — duplicates, NaN and ±Inf in DM and
// time, off-grid DMs — at MinPts 1 to 5, with the merge pass on and off.
func FuzzClusterMatchesRef(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 0, 2, 0, 11, 7, 0, 0, 0, 0, 3, 0, 12, 5, 9, 0, 13}, uint8(2), true)
	f.Add([]byte{6, 0, 255, 0, 6, 1, 255, 1, 0, 0, 255, 3, 0, 0, 255, 3, 0, 0, 255, 5, 0, 0, 255, 6}, uint8(0), false)
	f.Add([]byte{16, 0, 1, 0, 24, 0, 1, 1, 32, 0, 1, 2, 40, 0, 2, 0, 48, 0, 2, 1, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(4), true)
	g := dmgrid.Default()
	f.Fuzz(func(t *testing.T, data []byte, minPts uint8, merge bool) {
		checkMatchesRef(t, fuzzEvents(data, g), g, fuzzParams(int(minPts), merge))
	})
}

// fuzzParams picks MinPts 1 to 5 from k, the merge pass on or off, and
// either the default radii or radii that are powers of two, under which
// lattice points sit at distance exactly 1 — the boundary of the
// neighbourhood test.
func fuzzParams(k int, merge bool) Params {
	p := DefaultParams()
	p.MinPts = 1 + k%5
	if k&8 != 0 {
		p.EpsDMTrials, p.EpsTime = 4, 0.125
	}
	if !merge {
		p.MergeDMTrials = 0
	}
	return p
}

// TestClusterMatchesRef runs the fuzz decoder over random bytes, and
// Cluster over synthetic PALFA observations — pulsars, RFI and noise on
// the survey's grid — against refCluster.
func TestClusterMatchesRef(t *testing.T) {
	g := dmgrid.Default()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 4*rng.Intn(300))
		rng.Read(data)
		checkMatchesRef(t, fuzzEvents(data, g), g, fuzzParams(trial, trial%2 == 0))
	}
	// Lattices: trial indices and times on the power-of-two radii's grid,
	// so many pairs sit exactly on the neighbourhood boundary.
	for trial := 0; trial < 500; trial++ {
		events := make([]spe.SPE, rng.Intn(200))
		for i := range events {
			events[i] = spe.SPE{DM: g.Trial(rng.Intn(24)), Time: float64(rng.Intn(12)) * 0.125, SNR: float64(rng.Intn(4))}
		}
		checkMatchesRef(t, events, g, fuzzParams(8+trial, trial%2 == 0))
	}
	sv := synth.PALFA()
	sv.TobsSec = 10
	gen := synth.NewGenerator(sv, 3)
	for i := 0; i < 4; i++ {
		mix := synth.Sources{NumImpulseRFI: 2, NumFlatRFI: 4, NumNoise: 300,
			Pulsars: []synth.Pulsar{synth.RandomPulsar(rng, synth.AnyBand, synth.AnyBrightness, i%2 == 1)}}
		o, _ := gen.Observe(gen.NextKey(), mix)
		checkMatchesRef(t, o.Events, sv.Grid, DefaultParams())
	}
}
