package drapid

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonName is a struct field's JSON name ("" when it has no json tag).
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// TestJobSpecsNameEveryField: every exported field of the two job specs
// carries an explicit, distinct json name (or "-"), so a new knob cannot
// fall back to Go's default name and give the wire a second spelling.
func TestJobSpecsNameEveryField(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(DetectJob{}), reflect.TypeOf(IdentifyJob{})} {
		seen := map[string]string{}
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := jsonName(f)
			if name == "" {
				t.Errorf("%s.%s has no json name", typ.Name(), f.Name)
				continue
			}
			if prev, ok := seen[name]; ok && name != "-" {
				t.Errorf("%s.%s and .%s share the json name %q", typ.Name(), prev, f.Name, name)
			}
			seen[name] = f.Name
		}
	}
}

// logStore is a journal that records every Put in order and never erases,
// so a test can read what was journaled after the job has ended.
type logStore struct {
	mu   sync.Mutex
	puts [][]byte
	m    map[string][]byte
}

func (s *logStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts = append(s.puts, append([]byte(nil), data...))
	s.m[name] = s.puts[len(s.puts)-1]
	return nil
}

func (s *logStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name], nil
}

func (s *logStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (s *logStore) Delete(string) error { return nil }

// TestDetectJobJournalRoundTrip pins the one job vocabulary end to end: a
// POST /v1/detect body, decoded as drapidd decodes it, is journaled at
// submission, and the spec Recover replays from that entry is DeepEqual
// to the decoded body. Between them the two bodies set every tagged field
// (no valid spec sets both inputs, or shards and gulps, at once).
func TestDetectJobJournalRoundTrip(t *testing.T) {
	raw, err := GenerateFilterbank(SynthSpec{NChans: 16, NSamples: 2048, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := json.Marshal(raw)
	bodies := []string{
		`{"filterbank": ` + string(fb) + `, "key": "RT:58000:1:2:3",
		  "dm_min": 1, "dm_max": 40, "dm_step": 0.5, "widths": [1, 2, 4], "threshold": 6.5,
		  "norm_window": 512, "no_zerodm": true, "plan": "brute", "block_samples": 1024,
		  "sift": {"disable": true, "top": 3, "catalog": "K,10,", "min_group": 2,
		           "min_snr": 7, "close_dm": 1.5, "catalog_dm": 2.5}}`,
		`{"synth": {"nchans": 16, "nsamples": 2048, "tsamp_sec": 256e-6, "fch1_mhz": 1500,
		            "foff_mhz": -2, "tstart_mjd": 58000, "source_name": "RT", "noise_sigma": 1.5,
		            "seed": 3, "pulses": [{"time_sec": 0.2, "dm": 10, "width_ms": 1, "snr": 12}],
		            "rfi": [{"time_sec": 0.3, "width_ms": 1, "amp": 4}],
		            "trains": [{"start_sec": 0.1, "period_sec": 0.1, "count": 2, "dm": 20,
		                        "width_ms": 1, "snr": 10}]},
		  "dm_max": 40, "dm_step": 1, "norm_window": 512, "shards": 2, "shard_by": "dm"}`,
	}
	store := &logStore{m: map[string][]byte{}}
	first, err := New(WithWorkers(2), WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	first.journal = store
	want := map[string]DetectJob{}
	set := map[string]bool{}
	for _, body := range bodies {
		var spec DetectJob
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(spec)
		for i := range v.NumField() {
			if !v.Field(i).IsZero() {
				set[jsonName(v.Type().Field(i))] = true
			}
		}
		job, err := first.SubmitDetect(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		job.Cancel()
		want[job.ID()] = spec
	}
	first.Close()
	for i := range reflect.TypeOf(DetectJob{}).NumField() {
		if name := jsonName(reflect.TypeOf(DetectJob{}).Field(i)); name != "-" && !set[name] {
			t.Errorf("no body sets %q: the round trip does not cover it", name)
		}
	}

	second, err := New(WithWorkers(2), WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.journal = store
	recovered, err := second.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(bodies) {
		t.Fatalf("Recover replayed %d jobs, want %d", len(recovered), len(bodies))
	}
	for _, j := range recovered {
		j.Cancel()
	}
	// The first entries are the submissions; the rest are the replayed
	// specs, which Recover journals again as it resubmits them.
	store.mu.Lock()
	puts := store.puts
	store.mu.Unlock()
	if len(puts) != 2*len(bodies) {
		t.Fatalf("%d journal writes, want %d", len(puts), 2*len(bodies))
	}
	for _, data := range puts {
		ent, err := readJournalEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ent.Spec, want[ent.ID]) {
			t.Errorf("journal entry %s reads back as\n%+v\nwant\n%+v", ent.ID, ent.Spec, want[ent.ID])
		}
	}
}

// TestLegacyJournalEntry replays an entry written before DetectJob carried
// its own JSON names (testdata/journal/job-7): its "no_zero_dm" still
// turns the zero-DM filter off, and its result_buffer is dropped, so the
// replayed job — which nobody reads — completes instead of stalling.
func TestLegacyJournalEntry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "journal", "job-7"))
	if err != nil {
		t.Fatal(err)
	}
	ent, err := readJournalEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	want := DetectJob{
		Synth: &SynthSpec{
			NChans: 32, NSamples: 4096, TsampSec: 256e-6, Fch1MHz: 1500, FoffMHz: -2,
			SourceName: "LEGACY", Seed: 5,
			Pulses: []InjectedPulse{{TimeSec: 0.5, DM: 30, WidthMs: 2, SNR: 20}},
		},
		Key:   "LEGACY:58000.5:10.5:-20.25:3",
		DMMax: 60, DMStep: 1, Widths: []int{1, 2, 4, 8},
		Threshold: 6.5, NormWindow: 1024, NoZeroDM: true, Plan: "brute",
		Sift: Sift{Top: 5, Catalog: "KNOWN,30,"},
	}
	if ent.ID != "job-7" || !reflect.DeepEqual(ent.Spec, want) {
		t.Fatalf("legacy entry reads as %s %+v\nwant job-7 %+v", ent.ID, ent.Spec, want)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-7"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	engine, err := New(WithWorkers(2), WithJournalDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	jobs, err := engine.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID() != "job-7" {
		t.Fatalf("Recover returned %d jobs, want job-7 alone", len(jobs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := jobs[0].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("replayed legacy job identified nothing from an SNR-20 pulse")
	}
}

// TestLegacyTimeShardEntry replays an entry written while the fleet also
// sharded by time (testdata/journal/job-9, "shard_by": "time"): it reads
// back on the DM axis, and on a 2-worker in-process fleet it replays as a
// 2-shard DM job whose candidates equal the unsharded run's, where it used
// to run the approximate time split.
func TestLegacyTimeShardEntry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "journal", "job-9"))
	if err != nil {
		t.Fatal(err)
	}
	ent, err := readJournalEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Spec.ShardBy != ShardByDM || ent.Spec.Shards != 2 {
		t.Fatalf("legacy time entry reads as shards=%d shard_by=%q, want 2 %q", ent.Spec.Shards, ent.Spec.ShardBy, ShardByDM)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-9"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	engine, err := New(WithWorkers(2), WithFleetWorkers(2), WithJournalDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := func(job *Job) ([]string, Result) {
		t.Helper()
		var lines []string
		for c, err := range job.ResultsContext(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, c.CSV())
		}
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		return lines, res
	}
	jobs, err := engine.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID() != "job-9" {
		t.Fatalf("Recover returned %d jobs, want job-9 alone", len(jobs))
	}
	got, gotRes := run(jobs[0])
	unsharded := ent.Spec
	unsharded.Shards, unsharded.ShardBy = 0, ""
	ref, err := engine.SubmitDetect(ctx, unsharded)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := run(ref)
	if len(want) == 0 {
		t.Fatal("unsharded run found no candidates")
	}
	if !reflect.DeepEqual(got, want) || gotRes.Detections != wantRes.Detections {
		t.Fatalf("replayed entry: %d candidates from %d detections, unsharded %d from %d",
			len(got), gotRes.Detections, len(want), wantRes.Detections)
	}
	if gotRes.Fleet == nil || gotRes.Fleet.Shards != 2 || gotRes.Fleet.Done != 2 {
		t.Fatalf("replayed entry's fleet view %+v, want 2 DM shards done", gotRes.Fleet)
	}
}

// FuzzDetectRequest holds the JSON job surface on arbitrary bytes:
// decoding into DetectJob and validating never panics, and a spec that
// validates survives json.Marshal → Unmarshal DeepEqual and validates
// again, so the body, the journal and a replay describe the same job. It
// runs no job. The corpus seeds are CI's fleet-smoke body, README's two
// curl bodies and a legacy journal entry's spec.
func FuzzDetectRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec DetectJob
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		if _, err := spec.validate(); err != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back DetectJob
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("marshalled spec does not decode: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec drifted through JSON:\n%+v\n→ %s\n→ %+v", spec, data, back)
		}
		if _, err := back.validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v", err)
		}
	})
}
