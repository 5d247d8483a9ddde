package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
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
// one worker: the retry should reach the same refusing worker at once and
// fail after MaxAttempts. It cannot yet: a failed attempt marks its worker
// dead whatever the cause, so the retry waits for the next heartbeat to
// revive a worker that only answered 413 (ROADMAP item 3(d)).
func TestRefusedBlobSingleWorker(t *testing.T) {
	t.Skip("a refused blob marks its worker dead; the retry waits a heartbeat (ROADMAP item 3(d))")
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
