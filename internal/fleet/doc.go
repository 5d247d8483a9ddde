// Package fleet is the horizontal scale-out layer of the single-pulse
// search (DESIGN.md §9): a coordinator that splits one detection job into
// shards, dispatches them across a fleet of workers behind a
// placement-agnostic Worker interface, and merges the per-shard event
// streams back into the exact stream a single-engine run would have
// produced — the paper's Spark-over-YARN scale-out story recast onto the
// engine's own primitives.
//
// The shard unit is a restricted single-pulse search (ShardSpec): every
// shard carries the whole observation and the FULL trial-DM grid, plus
// the trial sub-range it searches. DM is the one shard axis. Carrying the
// whole grid is what makes the split bit-exact: dedispersion-plan
// resolution — including the subband nominal grid and the trial→nominal
// assignment of DESIGN.md §6 — derives from the full grid on every
// worker, so a trial computed on any worker is bit-identical to the same
// trial in an unsharded run, and the canonical time-ordered merge of the
// shard outputs, taken at a barrier once every shard is done, is
// record-for-record the single-engine event stream.
//
// Fault tolerance follows the paper's RDD lineage discipline: shards are
// deterministic pure recomputations, so a worker lost mid-shard (detected
// by heartbeat pings, or by a failed shard RPC) simply has its shard
// resubmitted to another worker, bounded by Config.MaxAttempts. Partial
// results of a failed attempt are discarded — a shard's events enter the
// merge only when its attempt completes — so resubmission can never
// duplicate or reorder merged output. A worker's 4xx answer (a blob past
// its cache bound, say) refuses that one request and is no sign of death:
// the worker stays in rotation, and the retry prefers another idle worker.
//
// Workers come in two placements: Local (an in-process searcher over an
// rdd executor, used by tests, benchmarks and single-host fleets) and
// Remote (a client for the HTTP shard protocol that NewHandler serves,
// which is what `drapidd -worker` mounts). There is one wire protocol,
// content-addressed and binary (DESIGN.md §12): a ShardSpec names its
// observation by SHA-256 digest (FilterbankDigest) and never carries its
// bytes, Remote uploads the bytes to a worker's size-bounded LRU
// BlobCache at most once per cache lifetime via HEAD/PUT
// /v1/blob/{digest}, and detected events return as length-prefixed
// little-endian frames (36 bytes per event). See http.go for the
// eviction (412) and refusal rules, frame.go for the frame layout.
//
// Store abstracts the journal persistence the public engine layers on
// top (queued/running jobs replayed on daemon restart): FSStore keeps
// entries in the simulated engine filesystem, DirStore in a real
// directory on disk.
package fleet
