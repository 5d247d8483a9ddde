package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"drapid/internal/core"
	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/pipeline"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// skyObservation searches a seeded synthetic sky — three dispersed pulses
// placed by the seed and a broadband RFI burst the zero-DM filter is left
// off for — with the sps frontend, as a detect job does, and returns the
// events under a seed-distinct key with the sky's feature config.
func skyObservation(t *testing.T, seed int64, grid *dmgrid.Grid) (spe.Observation, features.Config) {
	t.Helper()
	shift := 0.1 * float64(seed%5)
	fb, err := sps.Generate(sps.SynthConfig{
		NChans: 64, NSamples: 16384, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		Seed: seed,
		Pulses: []sps.InjectedPulse{
			{TimeSec: 0.4 + shift, DM: 30, WidthMs: 3, SNR: 18},
			{TimeSec: 1.6 + shift, DM: 75, WidthMs: 2, SNR: 14},
			{TimeSec: 2.9 - shift, DM: 110, WidthMs: 4, SNR: 20},
		},
		RFI: []sps.RFIBurst{{TimeSec: 2.2, WidthMs: 4, Amp: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := sps.Search(context.Background(), fb, sps.Config{DMs: grid.Trials(), Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	key := spe.Key{Dataset: "SKY", MJD: 55000 + float64(seed)}
	return spe.Observation{Key: key, Events: events},
		features.Config{Grid: grid, BandMHz: fb.BandwidthMHz(), FreqGHz: fb.CenterFreqGHz()}
}

// runDRAPIDEmitted runs the prepared lines through RunDRAPID on a simulated
// cluster and returns what its Emit hook delivered, in delivery order.
func runDRAPIDEmitted(t *testing.T, prep *pipeline.Prepared, params core.Params, feat features.Config) ([]pipeline.MLRecord, int64) {
	t.Helper()
	ctx := newTestContext(t, 4)
	if err := prep.Upload(ctx.FS, "spe.csv", "clusters.csv"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var emitted []pipeline.MLRecord
	res, err := pipeline.RunDRAPID(ctx, pipeline.JobConfig{
		DataFile: "spe.csv", ClusterFile: "clusters.csv", OutDir: "ml",
		Params: params, Feat: feat,
		Emit: func(recs []pipeline.MLRecord) {
			mu.Lock()
			defer mu.Unlock()
			emitted = append(emitted, recs...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return emitted, res.RecordsDropped
}

// TestIdentifyMatchesRunDRAPID is the seam gate of in-memory
// identification: Identify over Prepare's lines must emit exactly the
// records RunDRAPID emits over the same lines uploaded to the simulated
// HDFS — same order, same features bit for bit — and drop malformed key
// groups exactly as RunDRAPID counts them.
func TestIdentifyMatchesRunDRAPID(t *testing.T) {
	grid, err := dmgrid.New([]dmgrid.Stage{{Lo: 0, Hi: 151, Step: 1}})
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.SlopeM = core.DefaultSlopeM * 0.25 // scaled to the unit step, as detect jobs do
	check := func(t *testing.T, prep *pipeline.Prepared, feat features.Config, wantDropped int64) []pipeline.MLRecord {
		t.Helper()
		got, dropped := pipeline.Identify(prep, params, feat)
		want, wantRDD := runDRAPIDEmitted(t, prep, params, feat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Identify emitted %d records, RunDRAPID %d, or they differ:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		if dropped != wantRDD || dropped != wantDropped {
			t.Fatalf("Identify dropped %d key groups, RunDRAPID %d, want %d", dropped, wantRDD, wantDropped)
		}
		return got
	}

	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			obs, feat := skyObservation(t, seed, grid)
			prep := pipeline.Prepare([]spe.Observation{obs}, grid, dbscan.DefaultParams())
			if recs := check(t, prep, feat, 0); len(recs) == 0 {
				t.Fatal("the sky identified no pulses, so the comparison is vacuous")
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		prep := pipeline.Prepare(nil, grid, dbscan.DefaultParams())
		if recs := check(t, prep, features.Config{Grid: grid}, 0); recs != nil {
			t.Fatalf("empty input identified %d records", len(recs))
		}
	})

	t.Run("malformed", func(t *testing.T) {
		bad, feat := skyObservation(t, 5, grid)
		good, _ := skyObservation(t, 6, grid)
		prep := pipeline.Prepare([]spe.Observation{bad, good}, grid, dbscan.DefaultParams())
		// DataLines[1] is the first event of the first observation: break
		// its downfact so that key group fails to parse.
		line := prep.DataLines[1]
		prep.DataLines[1] = line[:strings.LastIndex(line, ",")] + ",notanumber"
		recs := check(t, prep, feat, 1)
		if len(recs) == 0 {
			t.Fatal("the well-formed key group identified no pulses")
		}
		for _, r := range recs {
			if r.Key != good.Key.String() {
				t.Fatalf("record from key %q survived; only %q is well formed", r.Key, good.Key)
			}
		}
	})
}
