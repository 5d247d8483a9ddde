package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
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

// putBlobRequest is a PUT /v1/blob request carrying body under the given
// declared length and digest, gzip-encoded when gz is set.
func putBlobRequest(body []byte, declared int64, digest string, gz bool) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPut, "/v1/blob/"+url.PathEscape(digest), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.ContentLength = declared
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	return req, nil
}

// gzipped compresses b.
func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// FuzzBlobPut drives the PUT /v1/blob handler with an arbitrary body,
// declared length, digest and gzip flag. A plain upload that declares its
// length is stored only when the body is exactly that many bytes and they
// hash to the digest; one declared past the cache bound is a 413. A gzip
// or length-less upload is stored only when what it decodes to fits the
// bound and hashes to the digest. Whatever is stored hashes to its digest,
// and no upload allocates past the bound: a declared length costs at most
// one buffer of itself, never of a length past the bound.
func FuzzBlobPut(f *testing.F) {
	const bound = 1 << 16
	honest := []byte("observation")
	d := Digest(honest)
	f.Add(honest, int64(len(honest)), d, false)
	f.Add(honest, int64(-1), d, false)
	f.Add(honest, int64(len(honest)+1), d, false)
	f.Add(honest, int64(len(honest)-1), Digest(honest[:len(honest)-1]), false)
	f.Add(honest, int64(bound+1), d, false)
	f.Add(gzipped(honest), int64(-1), d, true)
	f.Add(gzipped(honest), int64(len(gzipped(honest))), d, true)
	f.Add([]byte{}, int64(0), Digest(nil), false)
	f.Add(honest, int64(len(honest)), "not-a-digest", false)
	f.Fuzz(func(t *testing.T, body []byte, declared int64, digest string, gz bool) {
		// Declared lengths run to 16× the bound, which a handler that
		// allocated them before checking would show in its allocations.
		if declared = declared % (16 * bound); declared < 0 {
			declared = -1
		}
		req, err := putBlobRequest(body, declared, digest, gz)
		if err != nil {
			return
		}
		cache := NewBlobCache(bound, nil)
		h := NewHandler(testExec(), cache)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)

		plain := !gz && declared >= 0
		want, ok := body, true
		if gz {
			ok = len(body) <= bound
			if zr, err := gzip.NewReader(bytes.NewReader(body)); err != nil {
				ok = false
			} else if want, err = io.ReadAll(io.LimitReader(zr, bound+1)); err != nil {
				ok = false
			}
		}
		if plain {
			ok = int64(len(body)) == declared
		}
		ok = ok && len(want) <= bound && ValidDigest(digest) == nil && Digest(want) == digest
		stored := ValidDigest(digest) == nil && cache.Contains(digest)
		if stored != ok || stored != (rec.Code == http.StatusCreated) {
			t.Fatalf("%d-byte body declared %d, gzip %v, digest %q: stored %v with status %d, want stored %v",
				len(body), declared, gz, digest, stored, rec.Code, ok)
		}
		if stored {
			if got, _ := cache.Get(digest); !bytes.Equal(got, want) {
				t.Fatalf("stored %d bytes differ from the %d uploaded", len(got), len(want))
			}
		}
		if ValidDigest(digest) != nil {
			return // refused from its URL, whose length its parsing costs
		}
		if plain && declared > bound && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared %d past the %d-byte bound: status %d, want 413", declared, bound, rec.Code)
		}
		limit := uint64(3*bound + 256<<10) // the bounded read: growth plus the gzip state
		if plain {
			limit = 32 << 10
			if declared <= bound {
				limit += uint64(declared)
			}
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("%d-byte body declared %d, gzip %v: allocated %d bytes, want <= %d", len(body), declared, gz, alloc, limit)
		}
	})
}

// TestBlobPutAllocatesOnce: a plain upload of declared length costs the
// worker one buffer of the blob — no regrowth, no second copy — across
// the whole HTTP round trip, client included.
func TestBlobPutAllocatesOnce(t *testing.T) {
	blob := bytes.Repeat([]byte("0123456789abcdef"), 1<<18) // 4 MiB
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()
	put := func(data []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/blob/"+Digest(data), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %s", resp.Status)
		}
	}
	put([]byte("warm the connection"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put(blob)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(blob))*11/10 {
		t.Fatalf("uploading a %d-byte blob allocated %d bytes (%.2f×), want < 1.1×",
			len(blob), alloc, float64(alloc)/float64(len(blob)))
	}
}

// TestConcurrentShardsShareStaging: shards of one digest running at once
// on one handler — first on a cold slot, then on the staging it
// published — each return the events of a stateless run, and the warm
// pair both reuse the published staging. Meant for go test -race.
func TestConcurrentShardsShareStaging(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "subband", NormWindow: 1024, ZeroDM: true}, 4)
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil)
	counter := func(outcome string) float64 {
		return obs.Default.Counter("drapid_fleet_staging_total", "", obs.L("outcome", outcome)).Value()
	}
	pair := func(a, b ShardSpec) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, s := range []ShardSpec{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want, _, err := collectShard(s)
				if err != nil {
					errs[i] = err
					return
				}
				var got []spe.SPE
				if _, err := remote.Run(context.Background(), s, func(evs []spe.SPE) error {
					got = append(got, evs...)
					return nil
				}); err != nil {
					errs[i] = err
					return
				}
				if !eventsEqual(want, got) {
					errs[i] = fmt.Errorf("shard %d: events differ from a stateless run (%d vs %d)", s.Index, len(got), len(want))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	staged, reused := counter("staged"), counter("reused")
	pair(shards[0], shards[1])
	warm := counter("reused")
	pair(shards[2], shards[3])
	if s, r := counter("staged")-staged, counter("reused")-reused; s+r != 4 || counter("reused")-warm != 2 {
		t.Fatalf("%v staged, %v reused over 4 shards, %v reused by the warm pair; want 4 shards, the warm pair reusing",
			s, r, counter("reused")-warm)
	}
}

// TestSlotDropsEvictedBlob: a handler's staging slot keeps a staging only
// while its blob is cached. When another upload evicts the blob, the
// slot drops its staging, so the next shard of the blob (re-uploaded
// after a 412) stages afresh; and a search that completes after its blob
// left the cache publishes nothing.
func TestSlotDropsEvictedBlob(t *testing.T) {
	_, raw := testObservation(t)
	other := bytes.Clone(raw)
	other[len(other)-1] ^= 1
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(int64(len(raw)), nil)))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil)
	counter := func(outcome string) float64 {
		return obs.Default.Counter("drapid_fleet_staging_total", "", obs.L("outcome", outcome)).Value()
	}
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "subband", NormWindow: 1024}, 2)
	run := func(s ShardSpec) {
		t.Helper()
		want, _, err := collectShard(s)
		if err != nil {
			t.Fatal(err)
		}
		var got []spe.SPE
		if _, err := remote.Run(context.Background(), s, func(evs []spe.SPE) error {
			got = append(got, evs...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(want, got) {
			t.Fatalf("shard %d: events differ from a stateless run (%d vs %d)", s.Index, len(got), len(want))
		}
	}
	staged, reused := counter("staged"), counter("reused")
	run(shards[0])
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/blob/"+Digest(other), bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("uploading the other blob: %s", resp.Status)
	}
	run(shards[1])
	if s, r := counter("staged")-staged, counter("reused")-reused; s != 2 || r != 0 {
		t.Fatalf("%v staged, %v reused; want 2 and 0 (the evicted blob's staging dropped)", s, r)
	}

	slot := newStagingSlot(func(string) bool { return false })
	key := stagingKey{digest: Digest(raw)}
	st, _ := slot.acquire(key)
	slot.publish(key, st)
	if _, fresh := slot.acquire(key); !fresh {
		t.Fatal("the slot published the staging of a blob no longer cached")
	}
}

// TestStalledUploadsHoldOneBound: uploads that declare their length and
// then stall hold at most the cache bound in exact-size buffers between
// them; past it an upload takes the bounded read, which grows only with
// the bytes that arrive. Once they end the whole budget is free again,
// and the next upload is received into one buffer.
func TestStalledUploadsHoldOneBound(t *testing.T) {
	const bound = 4 << 20
	h := NewHandler(testExec(), NewBlobCache(bound, nil))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	pipes := make([]*io.PipeWriter, 3)
	for i := range pipes {
		pr, pw := io.Pipe()
		pipes[i] = pw
		req := httptest.NewRequest(http.MethodPut, "/v1/blob/"+Digest(nil), pr)
		req.ContentLength = bound
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
		// The write returns once the handler has read the byte, so it has
		// allocated whatever it allocates up front.
		if _, err := pw.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, pw := range pipes {
		pw.CloseWithError(errors.New("client gave up"))
	}
	wg.Wait()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound*3/2 {
		t.Fatalf("3 stalled uploads declaring %d bytes each allocated %d bytes, want <= 1.5 × the bound", bound, alloc)
	}

	blob := bytes.Repeat([]byte("0123456789abcdef"), bound/16)
	req := httptest.NewRequest(http.MethodPut, "/v1/blob/"+Digest(blob), bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload after the stalled ones: status %d", rec.Code)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(blob))*11/10 {
		t.Fatalf("uploading a %d-byte blob after the stalled ones allocated %d bytes, want < 1.1×", len(blob), alloc)
	}
}
