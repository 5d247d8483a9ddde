package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"drapid"
)

// TestDetectQueryNames pins the stream endpoint's query vocabulary: every
// scalar DetectJob knob by its JSON name, except BlockSamples, whose one
// query name is the short block, and the sharding knobs, which a stream
// refuses; plus top (Sift.Top). Those three tag names, body-only knobs,
// unknown names and malformed values are refused.
func TestDetectQueryNames(t *testing.T) {
	q := url.Values{
		"key": {"Q:58000:0:0:1"}, "dm_min": {"1"}, "dm_max": {"90"}, "dm_step": {"0.5"},
		"threshold": {"6.5"}, "norm_window": {"512"}, "no_zerodm": {"true"}, "plan": {"brute"},
	}
	notQueried := map[string]bool{"BlockSamples": true, "Shards": true, "ShardBy": true}
	typ := reflect.TypeOf(drapid.DetectJob{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch f.Type.Kind() {
		case reflect.String, reflect.Bool, reflect.Int, reflect.Float64:
			if _, ok := q[name]; name != "-" && !ok && !notQueried[f.Name] {
				t.Errorf("scalar knob %s (%q) is not exercised here", f.Name, name)
			}
		}
	}
	got, err := detectQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := drapid.DetectJob{
		Key: "Q:58000:0:0:1", DMMin: 1, DMMax: 90, DMStep: 0.5, Threshold: 6.5, NormWindow: 512,
		NoZeroDM: true, Plan: "brute",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detectQuery = %+v, want %+v", got, want)
	}

	got, err = detectQuery(url.Values{"block": {"4096"}, "top": {"7"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockSamples != 4096 || got.Sift.Top != 7 {
		t.Fatalf("short names: BlockSamples %d, Sift.Top %d; want 4096, 7", got.BlockSamples, got.Sift.Top)
	}

	for _, bad := range []string{
		"widths=1", "sift=1", "synth=1", "filterbank=1", "result_buffer=8", "no_zero_dm=true",
		"block_samples=2048", "shards=2", "shard_by=time", "bogus=1", "dm_max=oops", "no_zerodm=yes", "norm_window=1.5", "top=x",
	} {
		q, err := url.ParseQuery(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := detectQuery(q); err == nil {
			t.Errorf("detectQuery(%s) accepted", bad)
		}
	}
}

// TestDetectJobValidationOverHTTP: the specs SubmitDetect refuses
// (testdata/detect_invalid.json at the module root) are refused with a
// 400 as POST /v1/detect bodies, and, where the spec's fault lies in a
// scalar knob of a synth job, as stream queries too (the stream's body
// takes the synth input's place). Malformed filterbank bytes are accepted
// and the job fails.
func TestDetectJobValidationOverHTTP(t *testing.T) {
	data, err := os.ReadFile("../../testdata/detect_invalid.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()

	streamed := 0
	for name, fields := range cases {
		var sub struct {
			ID string `json:"id"`
		}
		resp := postJSON(t, ts.URL+"/v1/detect", fields, &sub)
		if name == "bad filterbank" {
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: status %d, want 202", name, resp.StatusCode)
			}
			job, ok := engine.Job(sub.ID)
			if !ok {
				t.Fatalf("%s: no job %q", name, sub.ID)
			}
			if _, err := job.Wait(context.Background()); err == nil {
				t.Errorf("%s: job succeeded", name)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: body status %d, want 400", name, resp.StatusCode)
		}

		if _, ok := fields["synth"]; !ok || fields["filterbank"] != nil {
			continue
		}
		q := url.Values{}
		queryable := true
		for k, raw := range fields {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			switch v := v.(type) {
			case string:
				q.Set(k, v)
			case float64:
				q.Set(k, strconv.FormatFloat(v, 'g', -1, 64))
			case bool:
				q.Set(k, strconv.FormatBool(v))
			default:
				// An array or object knob (widths, sift) has no query name,
				// so a case whose fault is one has no stream form. The synth
				// spec is the body's input, which a stream query never carries.
				queryable = queryable && k == "synth"
			}
		}
		if !queryable {
			continue
		}
		resp, err := http.Post(ts.URL+"/v1/detect/stream?"+q.Encode(), "application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: stream query %s status %d, want 400", name, q.Encode(), resp.StatusCode)
		}
		streamed++
	}
	if streamed == 0 {
		t.Fatal("no case reached the stream query")
	}
	// JSON cannot spell a NaN threshold, but a query can.
	resp, err := http.Post(ts.URL+"/v1/detect/stream?threshold=NaN", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("NaN threshold query: status %d, want 400", resp.StatusCode)
	}
}

// TestDetectBodyIsDetectJob: the POST /v1/detect body is DetectJob's JSON
// form. block_samples, which the body used to drop, reaches the search (an
// undersized gulp fails the job naming the sweep, and a huge one runs as
// one gulp), and a name DetectJob
// does not have — the legacy journal's no_zero_dm, or the in-process
// result_buffer — is a 400 rather than silently left at its default.
func TestDetectBodyIsDetectJob(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()

	synth := &drapid.SynthSpec{NChans: 32, NSamples: 4096, Seed: 2}
	var sub struct {
		ID string `json:"id"`
	}
	if resp := postJSON(t, ts.URL+"/v1/detect", drapid.DetectJob{Synth: synth, DMMax: 300, DMStep: 1, BlockSamples: 64}, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gulped body: status %d, want 202", resp.StatusCode)
	}
	job, ok := engine.Job(sub.ID)
	if !ok {
		t.Fatalf("no job %q", sub.ID)
	}
	if _, err := job.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "sweep") {
		t.Fatalf("64-sample gulps over a 300 DM grid: err = %v, want the undersized block named", err)
	}
	// A gulp past the observation (MaxInt64 would wrap with the overlap
	// added) searches it in one gulp rather than taking the server down.
	body := json.RawMessage(`{"synth": {"nchans": 32, "nsamples": 4096, "seed": 2}, "dm_max": 50, "dm_step": 1, "block_samples": 9223372036854775807}`)
	if resp := postJSON(t, ts.URL+"/v1/detect", body, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("MaxInt64 gulp body: status %d, want 202", resp.StatusCode)
	}
	if job, ok = engine.Job(sub.ID); !ok {
		t.Fatalf("no job %q", sub.ID)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("MaxInt64 gulp body: %v", err)
	}

	for _, extra := range []string{`"no_zero_dm": true`, `"result_buffer": 8`} {
		body := json.RawMessage(`{"synth": {"nchans": 32, "nsamples": 4096}, ` + extra + `}`)
		if resp := postJSON(t, ts.URL+"/v1/detect", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body with %s: status %d, want 400", extra, resp.StatusCode)
		}
	}
}

// TestSubmitBodyIsIdentifyJob: the POST /v1/jobs body is IdentifyJob's
// JSON form. partitions_per_core reaches the job (it sizes the hash
// partitioner, so it moves the task count), and the in-process
// result_buffer has no name there.
func TestSubmitBodyIsIdentifyJob(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2), drapid.WithExecutors(3))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()

	data, clusters := makeJobLines(t, 7, 3)
	tasks := map[int]int{}
	for _, ppc := range []int{1, 8} {
		var sub struct {
			ID string `json:"id"`
		}
		body := drapid.IdentifyJob{Data: data, Clusters: clusters, PartitionsPerCore: ppc}
		if resp := postJSON(t, ts.URL+"/v1/jobs", body, &sub); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("partitions_per_core %d: status %d", ppc, resp.StatusCode)
		}
		job, ok := engine.Job(sub.ID)
		if !ok {
			t.Fatalf("no job %q", sub.ID)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		tasks[ppc] = job.Progress().Tasks
	}
	if tasks[1] >= tasks[8] {
		t.Fatalf("tasks with 1 and 8 partitions per core: %d, %d; want fewer with 1", tasks[1], tasks[8])
	}

	body := map[string]any{"data": data, "clusters": clusters, "result_buffer": 8}
	if resp := postJSON(t, ts.URL+"/v1/jobs", body, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body with result_buffer: status %d, want 400", resp.StatusCode)
	}
}
