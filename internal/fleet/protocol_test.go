package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drapid/internal/obs"
	"drapid/internal/spe"
)

// TestBlobDispatchUploadsOnce pins the data plane's economics: a worker
// receives the observation body exactly once per cache lifetime — every
// DM shard of the first job and the whole of a second job over the same
// observation ship digest-only specs.
func TestBlobDispatchUploadsOnce(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}

	cache := NewBlobCache(0, obs.NewRegistry())
	var blobPuts, shardBytes atomic.Int64
	inner := NewHandler(testExec(), cache)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			blobPuts.Add(1)
		}
		if r.Method == http.MethodPost {
			shardBytes.Add(r.ContentLength)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	remote := NewRemote("w0", ts.URL, nil, WithWireMetrics(reg))
	run := func(job string) {
		t.Helper()
		for _, s := range PlanDM(job, raw, dms, search, 4) {
			if _, err := remote.Run(context.Background(), s, func([]spe.SPE) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	run("job-a")
	run("job-b")
	if n := blobPuts.Load(); n != 1 {
		t.Fatalf("observation uploaded %d times over 8 shards of 2 jobs, want exactly 1", n)
	}
	// Every POST body must be a lean spec: orders of magnitude under the
	// base64-inflated inline encoding.
	if lean := shardBytes.Load() / 8; lean > int64(len(raw))/10 {
		t.Fatalf("mean shard POST of %d bytes is not lean against a %d-byte observation", lean, len(raw))
	}
	if hits := cache.hits; hits == nil || hits.Value() < 8 {
		t.Fatalf("blob cache hits = %v, want >= 8 (one per dispatched shard)", hits.Value())
	}
}

// TestBlobEvictionReupload pins the 412 path: when the worker evicts a
// blob the coordinator still believes resident, the next dispatch gets
// 412, re-uploads, and succeeds — no failed attempt.
func TestBlobEvictionReupload(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}
	shards := PlanDM("job", raw, dms, search, 2)

	// Bound the cache to just over one observation, so a filler Put
	// evicts the real blob between dispatches.
	cache := NewBlobCache(int64(len(raw))+1024, nil)
	ts := httptest.NewServer(NewHandler(testExec(), cache))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil)

	if _, err := remote.Run(context.Background(), shards[0], func([]spe.SPE) error { return nil }); err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte{0xA5}, len(raw))
	if err := cache.Put(Digest(filler), filler); err != nil {
		t.Fatal(err)
	}
	if cache.Contains(shards[1].FilterbankDigest) {
		t.Fatal("filler did not evict the observation blob")
	}
	if _, err := remote.Run(context.Background(), shards[1], func([]spe.SPE) error { return nil }); err != nil {
		t.Fatalf("dispatch after worker-side eviction: %v", err)
	}
	if !cache.Contains(shards[1].FilterbankDigest) {
		t.Fatal("blob was not re-uploaded after the 412")
	}
}

// TestGzipBlobUpload exercises the optional compressed upload path end
// to end: the worker decompresses, verifies the digest, and serves the
// shard normally.
func TestGzipBlobUpload(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}
	shards := PlanDM("job", raw, dms, search, 1)

	cache := NewBlobCache(0, nil)
	ts := httptest.NewServer(NewHandler(testExec(), cache))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil, WithGzipBlobs())
	want, _, err := collectShard(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []spe.SPE
	if _, err := remote.Run(context.Background(), shards[0], func(evs []spe.SPE) error {
		got = append(got, evs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(want, got) {
		t.Fatalf("gzip-uploaded shard events differ from local (%d vs %d)", len(got), len(want))
	}
	if !cache.Contains(shards[0].FilterbankDigest) {
		t.Fatal("gzip upload did not land in the cache")
	}
}

// TestFramedStreamCut pins the completion contract on the binary path:
// a frame stream cut before its terminator fails the attempt.
func TestFramedStreamCut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MediaFrames)
		w.WriteHeader(http.StatusOK)
		fw := &frameWriter{w: w}
		fw.writeEvents([]spe.SPE{{DM: 1, SNR: 9, Time: 0.5, Sample: 10, Downfact: 1}})
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // cut before the stats trailer
	}))
	defer ts.Close()
	remote := NewRemote("cut", ts.URL, nil)
	_, err := remote.Run(context.Background(), ShardSpec{Job: "j", Shards: 1}, func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("cut frame stream: err = %v, want stream failure", err)
	}
}

// countingHandler wraps a worker handler, counting blob uploads and
// shard POSTs, and answering every shard POST with answer instead when it
// is non-zero.
func countingHandler(inner http.Handler, puts, posts *atomic.Int64, answer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPut:
			puts.Add(1)
		case http.MethodPost:
			posts.Add(1)
			if answer != 0 {
				w.WriteHeader(answer)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// TestRefusedBlobFailsAttempt: a worker whose cache cannot hold the
// observation refuses the upload with 413, and the attempt fails with an
// error naming that answer — the shard is never dispatched, and through a
// coordinator every attempt fails the same way until MaxAttempts.
func TestRefusedBlobFailsAttempt(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 2)
	var puts, posts atomic.Int64
	ts := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(int64(len(raw))/2, nil)), &puts, &posts, 0))
	defer ts.Close()
	remote := NewRemote("small", ts.URL, nil)

	_, err := remote.Run(context.Background(), shards[0], func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "refused blob") || !strings.Contains(err.Error(), "413") {
		t.Fatalf("refused blob: err = %v, want the worker's 413 named", err)
	}
	// The heartbeat outlasts the test, so the coordinator waits on the
	// attempts and never on the clock: a tight one could mark the worker
	// dead and cancel an attempt before its 413 arrived. A failed attempt
	// marks its worker dead and no ping revives it, so the second attempt
	// runs on a second handle to the same refusing worker.
	c := NewCoordinator(Config{Heartbeat: time.Hour, MaxAttempts: 2}, remote, NewRemote("small-2", ts.URL, nil))
	defer c.Close()
	_, _, err = c.Run(context.Background(), shards[:1], func([]spe.SPE) error { return nil }, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") || !strings.Contains(err.Error(), "413") {
		t.Fatalf("coordinator over a refusing worker: err = %v, want failure after 2 attempts naming the 413", err)
	}
	if n := posts.Load(); n != 0 {
		t.Fatalf("%d shard POSTs reached a worker that refused the blob, want 0", n)
	}
	if n := puts.Load(); n != 3 {
		t.Fatalf("%d blob uploads, want 3 (one per attempt)", n)
	}
}

// TestRefusedBlobSingleWorker is TestRefusedBlobFailsAttempt on a fleet of
// one worker: a refusal does not mark the worker dead, so the retry
// reaches the same refusing worker at once, not after a heartbeat, and
// the job fails after MaxAttempts.
func TestRefusedBlobSingleWorker(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 1)
	var puts, posts atomic.Int64
	ts := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(int64(len(raw))/2, nil)), &puts, &posts, 0))
	defer ts.Close()
	c := NewCoordinator(Config{Heartbeat: time.Hour, MaxAttempts: 2}, NewRemote("small", ts.URL, nil))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := c.Run(ctx, shards, func([]spe.SPE) error { return nil }, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") || !strings.Contains(err.Error(), "413") {
		t.Fatalf("one refusing worker: err = %v, want failure after 2 attempts naming the 413", err)
	}
	if n := puts.Load(); n != 2 {
		t.Fatalf("%d blob uploads, want 2 (one per attempt)", n)
	}
}

// TestRefusedBlobRetriesElsewhere: the retry of a shard whose blob a small
// worker refused goes to the other, larger worker, although the refusing
// one is listed first and stays alive; the job succeeds after one refused
// upload with the events of a local run.
func TestRefusedBlobRetriesElsewhere(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 1)
	var smallPuts, largePuts, posts atomic.Int64
	small := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(int64(len(raw))/2, nil)), &smallPuts, &posts, 0))
	defer small.Close()
	large := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(0, nil)), &largePuts, &posts, 0))
	defer large.Close()
	c := NewCoordinator(Config{Heartbeat: time.Hour, MaxAttempts: 2},
		NewRemote("small", small.URL, nil), NewRemote("large", large.URL, nil))
	defer c.Close()
	want, _, err := collectShard(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []spe.SPE
	_, status, err := c.Run(ctx, shards, func(evs []spe.SPE) error {
		got = append(got, evs...)
		return nil
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(want, got) {
		t.Fatalf("retried shard's events differ from a local run (%d vs %d)", len(got), len(want))
	}
	if status.Resubmitted != 1 || smallPuts.Load() != 1 || largePuts.Load() != 1 {
		t.Fatalf("resubmitted %d, uploads small %d large %d; want 1, 1, 1",
			status.Resubmitted, smallPuts.Load(), largePuts.Load())
	}
	if alive := c.Status().WorkersAlive; alive != 2 {
		t.Fatalf("WorkersAlive = %d, want 2 (a refusal is not a death)", alive)
	}
}

// TestWorkerAnswerClassified: a worker's 4xx answer to a shard POST is a
// refusal, which leaves the worker in rotation; a 5xx is a failure.
func TestWorkerAnswerClassified(t *testing.T) {
	_, raw := testObservation(t)
	spec := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6}, 1)[0]
	for _, tc := range []struct {
		answer  int
		refused bool
	}{
		{http.StatusBadRequest, true},
		{http.StatusNotFound, true},
		{http.StatusInternalServerError, false},
		{http.StatusServiceUnavailable, false},
	} {
		var puts, posts atomic.Int64
		ts := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(0, nil)), &puts, &posts, tc.answer))
		_, err := NewRemote("w", ts.URL, nil).Run(context.Background(), spec, func([]spe.SPE) error { return nil })
		ts.Close()
		if err == nil {
			t.Fatalf("answer %d: no error", tc.answer)
		}
		if got := errors.As(err, new(refusedError)); got != tc.refused {
			t.Errorf("answer %d: refusal = %v, want %v (%v)", tc.answer, got, tc.refused, err)
		}
	}
}

// legacyTimeShard is a POST /v1/shard body from a coordinator that still
// sharded by time: a ShardSpec with the owned-range fields sample_off,
// own_lo and own_hi, which a worker must not silently drop.
const legacyTimeShard = `{"job":"job-3","index":1,"shards":2,"attempt":1,` +
	`"filterbank_digest":"7ec155cb3c8aa3f0b8b528f5bca0ba41e9c854a70c5866447b807c08bd396f2f",` +
	`"dms":[0,10,20],"search":{"threshold":6,"norm_window":256},"sample_off":1530,"own_lo":2048,"own_hi":4096}`

// TestShardSpecStrict: a time shard is answered 400 naming the first field
// a ShardSpec does not have, instead of being searched as a DM shard whose
// overlap events come back as its own.
func TestShardSpecStrict(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(legacyTimeShard))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "sample_off") {
		t.Fatalf("time shard: %s %s, want 400 naming sample_off", resp.Status, msg)
	}
}

// FuzzShardSpec holds the shard request decoder on arbitrary bytes: a
// strict decode followed by Validate never panics, and a spec that
// validates survives json.Marshal → strict decode DeepEqual and validates
// again, so what a coordinator sends is what the worker runs. The seeds
// are PlanDM's specs and a time shard from an older coordinator.
func FuzzShardSpec(f *testing.F) {
	search := SearchSpec{Widths: []int{1, 2, 4}, Threshold: 6, NormWindow: 256, ZeroDM: true, Plan: "subband"}
	for _, s := range PlanDM("job-1", []byte("observation"), testGrid(), search, 3) {
		body, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(legacyTimeShard))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeShardSpec(bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		back, err := decodeShardSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("marshalled spec does not decode: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec drifted through JSON:\n%+v\n→ %s\n→ %+v", spec, data, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v", err)
		}
	})
}

// TestSecond412FailsAttempt: a blob evicted again right after its
// re-upload fails the attempt instead of looping or shipping the bytes
// another way.
func TestSecond412FailsAttempt(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 1)
	var puts, posts atomic.Int64
	ts := httptest.NewServer(countingHandler(NewHandler(testExec(), NewBlobCache(0, nil)), &puts, &posts, http.StatusPreconditionFailed))
	defer ts.Close()
	_, err := NewRemote("thrash", ts.URL, nil).Run(context.Background(), shards[0], func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "412 twice") {
		t.Fatalf("two 412s: err = %v, want the attempt failed naming them", err)
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("%d shard POSTs, want 2 (the dispatch and one retry)", n)
	}
}

// aReader streams n bytes of 'A'.
type aReader struct{ n int64 }

func (r *aReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.n)]
	for i := range p {
		p[i] = 'A'
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestShardSpecBounded: observation bytes never ride in a spec. A spec
// body past the largest legal one — an observation inlined as base64 —
// is answered 413 before it is buffered, and a small spec's inline bytes
// are not read, so without a digest it is refused as having no
// filterbank.
func TestShardSpecBounded(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()

	body := io.MultiReader(strings.NewReader(`{"job":"j","filterbank":"`),
		&aReader{n: maxShardSpecBytes}, strings.NewReader(`","dms":[1]}`))
	resp, err := http.Post(ts.URL+"/v1/shard", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %s, want 413", resp.Status)
	}

	_, raw := testObservation(t)
	spec := ShardSpec{Job: "j", Shards: 1, Filterbank: raw, DMs: testGrid()}
	_, err = NewRemote("w0", ts.URL, nil).Run(context.Background(), spec, func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no filterbank") {
		t.Fatalf("spec without a digest: err = %v, want it refused for having no filterbank", err)
	}
}
