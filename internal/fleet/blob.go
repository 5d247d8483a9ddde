package fleet

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"drapid/internal/obs"
)

// This file is the content-addressing half of the fleet data plane
// (DESIGN.md §12): observations ship as blobs named by their SHA-256, so
// the coordinator uploads each distinct observation to each worker at
// most once per cache lifetime — DM shards share one blob, resubmission
// and repeat jobs over the same observation ship only the digest.

// DefaultBlobCacheBytes is the worker blob-cache bound when nothing
// configures one: large enough for a handful of survey observations,
// small enough that a worker host never pages.
const DefaultBlobCacheBytes = 256 << 20

// Digest returns the content address of a blob: lowercase hex SHA-256.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ValidDigest checks a digest string is a well-formed content address
// (64 lowercase hex characters) before it is used as a cache key or URL
// path element.
func ValidDigest(d string) error {
	if len(d) != 2*sha256.Size {
		return fmt.Errorf("fleet: digest %q: want %d hex characters, got %d", d, 2*sha256.Size, len(d))
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("fleet: digest %q: byte %d is not lowercase hex", d, i)
		}
	}
	return nil
}

// blobEntry is one cached observation.
type blobEntry struct {
	digest string
	data   []byte
}

// BlobCache is a size-bounded LRU of content-addressed observation blobs:
// the worker-side half of the split between data and dispatch. All
// methods are safe for concurrent use. Hits, misses and evictions are
// counted in the given registry (drapid_fleet_blob_cache_*), and the
// resident byte total is exported as a scrape-time gauge.
type BlobCache struct {
	max int64

	mu      sync.Mutex
	size    int64
	lru     *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions *obs.Counter
	evicted                 []func(digest string) // under mu; called outside it
}

// NewBlobCache builds a cache bounded to maxBytes (DefaultBlobCacheBytes
// when <= 0), recording its counters in reg (nil records nothing).
func NewBlobCache(maxBytes int64, reg *obs.Registry) *BlobCache {
	if maxBytes <= 0 {
		maxBytes = DefaultBlobCacheBytes
	}
	c := &BlobCache{
		max:     maxBytes,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		// Counters are created here, outside c.mu, so the hot paths only
		// touch lock-free atomics — the same lock discipline the
		// coordinator gauges follow (DESIGN.md §10).
		hits:      reg.Counter("drapid_fleet_blob_cache_hits_total", "Blob-cache lookups that found the observation resident."),
		misses:    reg.Counter("drapid_fleet_blob_cache_misses_total", "Blob-cache lookups for a digest not resident (upload required)."),
		evictions: reg.Counter("drapid_fleet_blob_cache_evictions_total", "Blobs evicted to keep the cache under its byte bound."),
	}
	reg.GaugeFunc("drapid_fleet_blob_cache_bytes", "Bytes of observation blobs currently resident.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.size)
		})
	return c
}

// Get returns the blob for a digest, bumping its recency. The returned
// slice is the cached backing array: callers treat it as read-only (shard
// execution only ever reads the observation).
func (c *BlobCache) Get(digest string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[digest]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return el.Value.(*blobEntry).data, true
}

// Contains reports residency without bumping recency or counting a
// lookup — the HEAD-probe predicate.
func (c *BlobCache) Contains(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[digest]
	return ok
}

// Put stores a blob under its digest, verifying the content actually
// hashes to it (a worker never trusts the wire), and evicts
// least-recently-used blobs until the cache fits its bound. A blob
// larger than the whole bound is refused.
func (c *BlobCache) Put(digest string, data []byte) error {
	return c.put(digest, sha256.Sum256(data), data)
}

// put is Put for data whose SHA-256 the caller computed as it received
// the bytes (sum): the blob upload handler hashes while it reads, so the
// bytes stored are exactly the bytes hashed, and nothing hashes them
// twice.
func (c *BlobCache) put(digest string, sum [sha256.Size]byte, data []byte) error {
	if err := ValidDigest(digest); err != nil {
		return err
	}
	if got := hex.EncodeToString(sum[:]); got != digest {
		return fmt.Errorf("fleet: blob content hashes to %s, not %s", got, digest)
	}
	if int64(len(data)) > c.max {
		return fmt.Errorf("fleet: blob %s is %d bytes, cache bound is %d", digest, len(data), c.max)
	}
	var evicted []string
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok { // already resident: refresh recency
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return nil
	}
	for c.size+int64(len(data)) > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*blobEntry)
		c.lru.Remove(back)
		delete(c.entries, ent.digest)
		c.size -= int64(len(ent.data))
		evicted = append(evicted, ent.digest)
	}
	c.entries[digest] = c.lru.PushFront(&blobEntry{digest: digest, data: data})
	c.size += int64(len(data))
	hooks := c.evicted
	c.mu.Unlock()
	c.evictions.Add(float64(len(evicted)))
	for _, d := range evicted {
		for _, fn := range hooks {
			fn(d)
		}
	}
	return nil
}

// onEvict registers fn to be called, outside the cache's lock, with the
// digest of every blob the cache evicts from then on.
func (c *BlobCache) onEvict(fn func(digest string)) {
	c.mu.Lock()
	c.evicted = append(c.evicted, fn)
	c.mu.Unlock()
}

// Max reports the cache's byte bound (also the largest acceptable blob).
func (c *BlobCache) Max() int64 { return c.max }

// Len reports the number of resident blobs.
func (c *BlobCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the resident byte total.
func (c *BlobCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
