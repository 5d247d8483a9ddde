package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drapid/internal/obs"
	"drapid/internal/rdd"
	"drapid/internal/spe"
	"drapid/internal/sps"
)

// The shard protocol of the fleet data plane (DESIGN.md §12):
//
//	GET  /v1/shard/ping         → 200 {"ok":true,"proto":2}
//	HEAD /v1/blob/{digest}      → 204 cached | 404 not cached
//	PUT  /v1/blob/{digest}      ← raw observation bytes (optional gzip)
//	                            → 201 stored (content verified against digest)
//	                              413 declared length past the cache bound
//	POST /v1/shard              ← JSON ShardSpec naming its observation by digest
//	                            → binary event frames + exactly one terminator
//
// Dispatch is split from data: the coordinator uploads each distinct
// observation blob once per worker cache lifetime and then ships only
// its SHA-256 in every shard spec. A digest the worker no longer holds
// fails the POST with 412, which the client answers by re-uploading
// once; a refused upload or a second 412 fails the attempt, and a 4xx
// leaves the worker alive (refusedError). The response is a stream of
// length-prefixed frames (frame.go) that ends in a stats or error
// frame: a response that ends without one (connection cut, worker
// killed) is a failed attempt, which the coordinator resubmits — and
// events are only folded into the merge when the terminator arrives, so
// a half-streamed response never contaminates merged output.

// maxShardSpecBytes bounds a POST /v1/shard body. The largest legal spec
// is dominated by its trial grid: sps.MaxTrials DMs of at most 25 bytes of
// JSON each (a 24-character shortest float64 plus its comma). A MiB of
// slack covers the widths, names and numbers around it.
const maxShardSpecBytes = sps.MaxTrials*25 + 1<<20

// decodeShardSpec reads a POST /v1/shard body strictly: a field ShardSpec
// does not have, such as an older coordinator's time-shard own_hi, is an
// error naming it rather than silently dropped.
func decodeShardSpec(r io.Reader) (ShardSpec, error) {
	var spec ShardSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// refusedError is a worker's 4xx answer: the worker refused that one
// request, which says nothing about its health, so the coordinator
// retries the shard without marking the worker dead.
type refusedError struct{ error }

// answered is err for a worker's non-success answer of the given status,
// a refusedError when the status is a 4xx.
func answered(status int, err error) error {
	if status >= 400 && status < 500 {
		return refusedError{err}
	}
	return err
}

// Handler serves the worker side of the shard protocol with a
// default-bounded blob cache: what tests and single-host fleets mount.
func Handler(exec rdd.ExecConfig) http.Handler { return NewHandler(exec, nil) }

// NewHandler serves the worker side of the shard protocol over the given
// executor and blob cache (nil: a DefaultBlobCacheBytes cache counting
// into obs.Default) — what `drapidd -worker` mounts. A plain upload with
// a Content-Length is received once into a buffer of exactly that length
// and hashed as it arrives (putExact), as long as the buffers of the
// uploads in progress stay within the cache bound; past it an upload
// takes the bounded read. The handler keeps one staging slot (DESIGN.md
// §9.1): the channel-major staging of the last observation it searched,
// which its next shards of the same blob and zero-DM setting reuse —
// concurrently, read-only — instead of decoding, zero-DMing and
// transposing it again, and which it drops when the blob leaves the
// cache; drapid_fleet_staging_total counts both outcomes.
// Both the blob cache and the slot are derived from content, so a worker
// process can still be killed and replaced at will (the coordinator
// treats the cut connection as a failed attempt, resubmits, and
// re-uploads whatever blobs the replacement is missing).
func NewHandler(exec rdd.ExecConfig, cache *BlobCache) http.Handler {
	if cache == nil {
		cache = NewBlobCache(0, obs.Default)
	}
	// The slot keeps a staging only while its blob is cached, so the
	// staging never outlives the blob's place under the cache bound.
	slot := newStagingSlot(cache.Contains)
	cache.onEvict(slot.drop)
	// receiving counts the bytes exact-size receives have allocated and
	// not yet handed to the cache. It is held to the cache bound, so
	// clients that declare large bodies and then stall cannot make the
	// worker allocate more than that up front; an upload past it takes
	// the bounded read, which grows only with the bytes that arrive.
	var receiving atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true,"proto":2}`)
	})
	mux.HandleFunc("GET /v1/blob/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		if err := ValidDigest(digest); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.Method == http.MethodHead {
			// Residency probe: no body, and no hit/miss accounting — only
			// dispatch-path lookups measure cache effectiveness.
			if cache.Contains(digest) {
				w.WriteHeader(http.StatusNoContent)
			} else {
				w.WriteHeader(http.StatusNotFound)
			}
			return
		}
		data, ok := cache.Get(digest)
		if !ok {
			http.Error(w, "blob not cached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	})
	mux.HandleFunc("PUT /v1/blob/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		if err := ValidDigest(digest); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.ContentLength >= 0 && r.Header.Get("Content-Encoding") != "gzip" {
			if r.ContentLength > cache.Max() {
				http.Error(w, fmt.Sprintf("blob of %d bytes exceeds the cache bound of %d", r.ContentLength, cache.Max()),
					http.StatusRequestEntityTooLarge)
				return
			}
			n := r.ContentLength
			if receiving.Add(n) <= cache.Max() {
				defer receiving.Add(-n)
				putExact(w, r, cache, digest)
				return
			}
			receiving.Add(-n)
		}
		var src io.Reader = http.MaxBytesReader(w, r.Body, cache.Max())
		if r.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(src)
			if err != nil {
				http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
				return
			}
			defer zr.Close()
			// Bound the decompressed size too: a gzip bomb must not balloon
			// past the cache's own refusal threshold.
			src = io.LimitReader(zr, cache.Max()+1)
		}
		data, err := io.ReadAll(src)
		if err != nil {
			// Only a body past the bound is too large; a corrupt or cut
			// one (bad gzip checksum, early EOF) is a bad request.
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "reading blob: "+err.Error(), status)
			return
		}
		if err := cache.Put(digest, data); err != nil {
			status := http.StatusBadRequest
			if int64(len(data)) > cache.Max() {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("POST /v1/shard", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeShardSpec(http.MaxBytesReader(w, r.Body, maxShardSpecBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad shard spec: "+err.Error()), status)
			return
		}
		if spec.FilterbankDigest != "" {
			// Resolve the observation from the cache, or tell the
			// coordinator to upload it (412) — the one protocol answer cache
			// eviction ever needs.
			data, ok := cache.Get(spec.FilterbankDigest)
			if !ok {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusPreconditionFailed)
				fmt.Fprintf(w, `{"error":"blob %s not cached"}`+"\n", spec.FilterbankDigest)
				return
			}
			spec.Filterbank = data
		}
		rc := http.NewResponseController(w)
		w.Header().Set("Content-Type", MediaFrames)
		w.WriteHeader(http.StatusOK)
		fw := &frameWriter{w: w}
		served := time.Now()
		stats, err := runShard(r.Context(), spec, exec, slot, func(events []spe.SPE) error {
			if err := fw.writeEvents(events); err != nil {
				return err
			}
			return rc.Flush()
		})
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		obs.Default.Histogram("drapid_fleet_shard_service_seconds",
			"Worker-side shard service time (RunShard wall), by outcome.",
			nil, obs.L("outcome", outcome)).Observe(time.Since(served).Seconds())
		if err != nil {
			fw.writeError(err.Error())
		} else {
			fw.writeStats(stats)
		}
	})
	return mux
}

// putExact is the PUT /v1/blob handler for a plain body of declared
// length within the cache bound: one buffer of exactly that length,
// filled as the bytes arrive and hashed chunk by chunk as they land, so
// the bytes stored are the bytes hashed and the observation is neither
// regrown nor read twice. A body shorter or longer than it declares is a
// 400.
func putExact(w http.ResponseWriter, r *http.Request, cache *BlobCache, digest string) {
	data := make([]byte, r.ContentLength)
	h := sha256.New()
	for n := 0; n < len(data); {
		k, err := r.Body.Read(data[n:])
		h.Write(data[n : n+k])
		n += k
		if err != nil && n < len(data) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			http.Error(w, fmt.Sprintf("reading blob: %d of %d bytes: %v", n, len(data), err), http.StatusBadRequest)
			return
		}
	}
	if k, _ := r.Body.Read(make([]byte, 1)); k > 0 {
		http.Error(w, fmt.Sprintf("blob body runs past its declared %d bytes", len(data)), http.StatusBadRequest)
		return
	}
	if err := cache.put(digest, [sha256.Size]byte(h.Sum(nil)), data); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// Remote is a worker behind the HTTP shard protocol: the coordinator's
// client for one `drapidd -worker` process. It remembers which blobs it
// has uploaded, so each distinct observation crosses the wire at most
// once per worker cache lifetime.
type Remote struct {
	name    string
	base    string
	client  *http.Client
	gzip    bool
	metrics *obs.Registry
	sent    *obs.Counter
	recv    *obs.Counter

	mu    sync.Mutex
	blobs map[string]bool // digests believed resident on the worker
}

// RemoteOption configures a Remote at construction.
type RemoteOption func(*Remote)

// WithWireMetrics records the worker's wire counters
// (drapid_fleet_bytes_sent_total / _received_total, labelled by worker)
// in the given registry.
func WithWireMetrics(reg *obs.Registry) RemoteOption {
	return func(r *Remote) { r.metrics = reg }
}

// WithGzipBlobs compresses blob uploads (Content-Encoding: gzip).
// Worth it on slow links; raw float noise compresses poorly, so the
// default stays uncompressed.
func WithGzipBlobs() RemoteOption {
	return func(r *Remote) { r.gzip = true }
}

// NewRemote builds a worker client for the given base URL (e.g.
// "http://host:8417"). A nil client uses a dedicated streaming-friendly
// default (no response timeout; shard lifetime is bounded by the run
// context, not the transport).
func NewRemote(name, baseURL string, client *http.Client, opts ...RemoteOption) *Remote {
	if client == nil {
		client = &http.Client{}
	}
	r := &Remote{name: name, base: strings.TrimRight(baseURL, "/"), client: client, blobs: make(map[string]bool)}
	for _, o := range opts {
		o(r)
	}
	// Counters resolve to nil-safe no-ops when no registry was attached.
	r.sent = r.metrics.Counter("drapid_fleet_bytes_sent_total",
		"Bytes shipped to the worker: shard spec and blob upload bodies.", obs.L("worker", name))
	r.recv = r.metrics.Counter("drapid_fleet_bytes_received_total",
		"Bytes received from the worker: shard response stream bodies.", obs.L("worker", name))
	return r
}

// Name implements Worker.
func (r *Remote) Name() string { return r.name }

// Ping implements Worker via GET /v1/shard/ping.
func (r *Remote) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/shard/ping", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: worker %s ping: %s", r.name, resp.Status)
	}
	return nil
}

func (r *Remote) rememberBlob(digest string) {
	r.mu.Lock()
	r.blobs[digest] = true
	r.mu.Unlock()
}

func (r *Remote) forgetBlob(digest string) {
	r.mu.Lock()
	delete(r.blobs, digest)
	r.mu.Unlock()
}

func (r *Remote) knowsBlob(digest string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.blobs[digest]
}

// Run implements Worker: make the observation resident on the worker as
// a content-addressed blob (uploaded once per cache lifetime), POST the
// digest-only spec, and stream back event frames up to the terminal
// record — a response that ends without one is a failed attempt. A spec
// without a digest is posted as is, and the worker refuses it.
func (r *Remote) Run(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	if spec.FilterbankDigest == "" {
		stats, _, err := r.post(ctx, spec, emit)
		return stats, err
	}
	// Two rounds cover the eviction race: the blob can disappear between
	// ensure and dispatch, in which case 412 sends us around once more.
	for attempt := 0; attempt < 2; attempt++ {
		if err := r.ensureBlob(ctx, spec.FilterbankDigest, spec.Filterbank); err != nil {
			return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: %w", r.name, spec.Job, spec.Index, err)
		}
		stats, missing, err := r.post(ctx, spec, emit)
		if !missing {
			return stats, err
		}
		r.forgetBlob(spec.FilterbankDigest)
	}
	return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: blob %.12s evicted again after re-upload (412 twice)",
		r.name, spec.Job, spec.Index, spec.FilterbankDigest)
}

// ensureBlob makes the observation resident on the worker, uploading it
// if the HEAD probe misses.
func (r *Remote) ensureBlob(ctx context.Context, digest string, data []byte) error {
	if r.knowsBlob(digest) {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, r.base+"/v1/blob/"+digest, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		r.rememberBlob(digest)
		return nil
	case http.StatusNotFound:
		return r.putBlob(ctx, digest, data)
	}
	return fmt.Errorf("probing blob %.12s: %s", digest, resp.Status)
}

// putBlob uploads one blob: a streaming body with Content-Length (no
// full-body JSON copy), optionally gzip-compressed. A refusal (413 past
// the worker's cache bound, 400 on a digest mismatch) is a refusedError
// naming the worker's answer.
func (r *Remote) putBlob(ctx context.Context, digest string, data []byte) error {
	var body *bytes.Reader
	encoding := ""
	if r.gzip {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		body = bytes.NewReader(buf.Bytes())
		encoding = "gzip"
	} else {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.base+"/v1/blob/"+digest, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return answered(resp.StatusCode, fmt.Errorf("worker refused blob %.12s (%d bytes): %s: %s",
			digest, len(data), resp.Status, strings.TrimSpace(string(msg))))
	}
	io.Copy(io.Discard, resp.Body)
	r.sent.Add(float64(body.Size()))
	r.rememberBlob(digest)
	return nil
}

// countReader counts bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// post executes one shard RPC. missing reports a 412 blob-not-cached
// answer (the caller re-uploads and retries); every other non-200 is an
// error, a refusedError for a 4xx.
func (r *Remote) post(ctx context.Context, spec ShardSpec, emit func([]spe.SPE) error) (stats sps.Stats, missing bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return sps.Stats{}, false, err
	}
	// bytes.Reader bodies carry Content-Length, so the upload is not
	// chunked and proxies can apply sane buffering.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return sps.Stats{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", MediaFrames)
	resp, err := r.client.Do(req)
	if err != nil {
		return sps.Stats{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	r.sent.Add(float64(len(body)))
	if resp.StatusCode == http.StatusPreconditionFailed {
		return sps.Stats{}, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return sps.Stats{}, false, answered(resp.StatusCode, fmt.Errorf("fleet: worker %s shard %s/%d: %s: %s",
			r.name, spec.Job, spec.Index, resp.Status, strings.TrimSpace(string(msg))))
	}
	cr := &countReader{r: resp.Body}
	defer func() { r.recv.Add(float64(cr.n)) }()
	stats, err = r.decodeFrames(cr, spec, emit)
	return stats, false, err
}

// decodeFrames drains a binary frame stream (frame.go): event batches
// through emit, then the terminal stats or error frame.
func (r *Remote) decodeFrames(body io.Reader, spec ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	fr := &frameReader{r: bufio.NewReaderSize(body, 64<<10)}
	for {
		typ, payload, err := fr.next()
		if err == io.EOF {
			return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: stream ended without completion",
				r.name, spec.Job, spec.Index)
		}
		if err != nil {
			return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: stream cut: %w",
				r.name, spec.Job, spec.Index, err)
		}
		switch typ {
		case frameEvents:
			if emit != nil && len(payload) > 0 {
				if err := emit(fr.events(payload)); err != nil {
					return sps.Stats{}, err
				}
			}
		case frameStats:
			stats, err := decodeStats(payload)
			if err != nil {
				return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: %w", r.name, spec.Job, spec.Index, err)
			}
			return stats, nil
		case frameError:
			return sps.Stats{}, fmt.Errorf("fleet: worker %s shard %s/%d: %s",
				r.name, spec.Job, spec.Index, string(payload))
		}
	}
}

// WaitReady polls a worker until it answers a ping or the deadline
// expires: a convenience for process orchestration (tests, the CI smoke
// script) that starts worker processes and needs them listening before
// submitting.
func WaitReady(ctx context.Context, w Worker, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		err := w.Ping(pctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: worker %s not ready after %s: %w", w.Name(), timeout, err)
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
