package pipeline_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drapid/internal/dbscan"
	"drapid/internal/pipeline"
	"drapid/internal/spe"
	"drapid/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSurvey prepares a small fixed survey: numObs observations mixing a
// pulsar (every other one), impulse and flat RFI and noise, plus one
// observation with no events at all.
func goldenSurvey(sv synth.Survey, seed int64, numObs int) *pipeline.Prepared {
	sv.TobsSec = 8
	gen := synth.NewGenerator(sv, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var obs []spe.Observation
	for i := 0; i < numObs; i++ {
		mix := synth.Sources{NumImpulseRFI: 2, NumFlatRFI: 2, NumNoise: 200}
		if i%2 == 0 {
			mix.Pulsars = []synth.Pulsar{synth.RandomPulsar(rng, synth.AnyBand, synth.AnyBrightness, i%4 == 2)}
		}
		o, _ := gen.Observe(gen.NextKey(), mix)
		obs = append(obs, o)
	}
	obs = append(obs, spe.Observation{Key: gen.NextKey()})
	return pipeline.Prepare(obs, sv.Grid, dbscan.DefaultParams())
}

// prepareDigest renders the SHA-256 of each of Prepare's outputs: the two
// CSV files line by line, and every Result's Labels and Members.
func prepareDigest(p *pipeline.Prepared) string {
	lines := func(ls []string) string {
		h := sha256.New()
		for _, l := range ls {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	labels, members := sha256.New(), sha256.New()
	var b [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	for _, r := range p.Results {
		put(labels, len(r.Labels))
		for _, l := range r.Labels {
			put(labels, l)
		}
		put(members, len(r.Members))
		for _, m := range r.Members {
			put(members, len(m))
			for _, i := range m {
				put(members, i)
			}
		}
	}
	return fmt.Sprintf("data %d %s\nclusters %d %s\nlabels %x\nmembers %x\n",
		len(p.DataLines), lines(p.DataLines), len(p.ClusterLines), lines(p.ClusterLines),
		labels.Sum(nil), members.Sum(nil))
}

// TestPrepareGolden pins every output byte of stages 1–2 — both CSV files
// and every observation's labels and member lists — on two fixed surveys,
// so any change to the formatter, the clustering or Prepare's scheduling
// that moves one byte fails here.
func TestPrepareGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		name string
		sv   synth.Survey
		seed int64
	}{{"palfa", synth.PALFA(), 11}, {"gbt350drift", synth.GBT350Drift(), 12}} {
		fmt.Fprintf(&got, "# %s seed %d\n%s", c.name, c.seed, prepareDigest(goldenSurvey(c.sv, c.seed, 6)))
	}
	path := filepath.Join("testdata", "prepare.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("Prepare output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
