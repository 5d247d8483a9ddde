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

// identifyLines is the in-memory search over prepared lines: GroupByKey,
// then ProcessKeyGroup per key in key order, a malformed key group
// dropped and counted as RunDRAPID counts it.
func identifyLines(prep *pipeline.Prepared, params core.Params, feat features.Config) (recs []pipeline.MLRecord, dropped int64) {
	for _, g := range pipeline.GroupByKey(prep.DataLines, prep.ClusterLines) {
		out, _, err := pipeline.ProcessKeyGroup(g.Key, g.Clusters, g.Data, params, feat)
		if err != nil {
			dropped++
			continue
		}
		recs = append(recs, out...)
	}
	return recs, dropped
}

// TestIdentifyMatchesRunDRAPID is the seam gate of in-memory
// identification: the typed search (Searcher.SearchEvents) over an
// observation's events and clusters must emit exactly the records
// RunDRAPID emits over the same observation's lines uploaded to the
// simulated HDFS — same order, same features bit for bit. The line
// semantics (aliased heads, malformed key groups) are held to RunDRAPID
// through GroupByKey and ProcessKeyGroup.
func TestIdentifyMatchesRunDRAPID(t *testing.T) {
	grid, err := dmgrid.New([]dmgrid.Stage{{Lo: 0, Hi: 151, Step: 1}})
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.SlopeM = core.DefaultSlopeM * 0.25 // scaled to the unit step, as detect jobs do
	checkRDD := func(t *testing.T, prep *pipeline.Prepared, feat features.Config, got []pipeline.MLRecord, dropped, wantDropped int64) {
		t.Helper()
		want, wantRDD := runDRAPIDEmitted(t, prep, params, feat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("in-memory search emitted %d records, RunDRAPID %d, or they differ:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		if dropped != wantRDD || dropped != wantDropped {
			t.Fatalf("in-memory search dropped %d key groups, RunDRAPID %d, want %d", dropped, wantRDD, wantDropped)
		}
	}
	typed := func(t *testing.T, obs []spe.Observation, feat features.Config) []pipeline.MLRecord {
		t.Helper()
		prep := pipeline.Prepare(obs, grid, dbscan.DefaultParams())
		var recs []pipeline.MLRecord
		for i, o := range obs {
			s := pipeline.Searcher{Key: o.Key.String(), Params: params, Feat: feat}
			recs = s.SearchEvents(recs, o.Events, prep.Clusters[i])
		}
		checkRDD(t, prep, feat, recs, 0, 0)
		return recs
	}
	check := func(t *testing.T, prep *pipeline.Prepared, feat features.Config, wantDropped int64) []pipeline.MLRecord {
		t.Helper()
		got, dropped := identifyLines(prep, params, feat)
		checkRDD(t, prep, feat, got, dropped, wantDropped)
		return got
	}

	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			obs, feat := skyObservation(t, seed, grid)
			if recs := typed(t, []spe.Observation{obs}, feat); len(recs) == 0 {
				t.Fatal("the sky identified no pulses, so the comparison is vacuous")
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		if recs := typed(t, nil, features.Config{Grid: grid}); recs != nil {
			t.Fatalf("empty input identified %d records", len(recs))
		}
	})

	t.Run("collision", func(t *testing.T) {
		// Heads "SKY:A,<mjd>,…" and "SKY,A:<mjd>,…" differ as written but
		// canonicalise to one key ("SKY:A:<mjd>:…"), so they must form one
		// group in line order: aliasing every other line of an observation
		// leaves its records exactly as they were.
		obs, feat := skyObservation(t, 7, grid)
		obs.Key.Dataset = "SKY:A"
		prep := pipeline.Prepare([]spe.Observation{obs}, grid, dbscan.DefaultParams())
		want := check(t, prep, feat, 0)
		if len(want) == 0 {
			t.Fatal("the sky identified no pulses, so the comparison is vacuous")
		}
		for _, lines := range [][]string{prep.DataLines, prep.ClusterLines} {
			for i := 1; i < len(lines); i += 2 {
				lines[i] = "SKY,A:" + strings.TrimPrefix(lines[i], "SKY:A,")
			}
		}
		if got := check(t, prep, feat, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("aliased heads identified %d records, canonical ones %d, or they differ", len(got), len(want))
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
