// Package cache provides the byte-bounded, sharded second-chance bucket
// cache that fronts the page store on the network server's hot path. The
// cached unit is a decoded bucket in arena form: one geom.Flat — a contiguous
// []float64 coordinate array plus a dimension header — keyed by bucket id.
// Five properties matter for the serving path:
//
//   - Lock-free hits: the resident set is one slot table indexed by bucket
//     id (ids are dense), so a hit is a load of the table and of the slot
//     and, at most, one bit — the entry's referenced bit, stored only when
//     it is clear. A hit takes no lock, and a query counts its hits with one
//     add to the one cache-wide counter (Resident, CountHits).
//   - Sharding: writers — a miss, a completed load, an invalidation, an
//     eviction — lock the shard the id hashes to, so concurrent misses rarely
//     contend on one mutex, and write nothing shared beyond that shard: an
//     id's invalidation stamp sits beside its slot, and the miss, eviction,
//     invalidation, byte and entry counts are the shard's own, summed by
//     Stats.
//   - Byte bound: each shard owns an equal slice of the configured budget
//     and evicts from the cold end of its list whenever an insert pushes it
//     over; the whole cache never holds more than MaxBytes of decoded
//     records (plus bounded per-entry overhead accounted with them).
//   - Second chance: a hit only sets the entry's referenced bit — no list
//     surgery — and eviction, the rare operation, pays for recency: an entry
//     reaching the cold end with the bit set has it cleared and goes round
//     once more; the first one found clear goes.
//   - A miss is its own query's read: Acquire hands the caller a load
//     handle, the caller reads the bucket and passes the handle to Complete
//     on success. Two queries that miss one bucket at once both read it; no
//     query ever waits on another's I/O. The pair serves callers that batch
//     their disk reads (the server groups a query's misses per disk before
//     reading), and Get wraps it for callers with a simple loader function.
//
// The stale-load fence: Invalidate stamps the id, the handle carries the
// stamp Acquire saw, and Complete caches a load only if the stamp is
// unchanged. A load that began before an Invalidate — it may have read the
// old pages — is therefore never cached, though its reader still gets its
// result. Two orders make this hold. The caller takes the stamp (Acquire)
// before it looks the bucket's placement up to read it, so a write whose
// placement swap precedes that lookup is either read or fenced. And
// Acquire grows the table before it hands out a stamp, so Invalidate never
// skips an id a load is out for.
//
// Cached arenas are shared between all readers and must be treated as
// immutable. Lifetime under writes is version-pinned, not refcounted:
// Invalidate clears the slot and stamps the id, but never frees or
// reuses the arena — a reader that acquired the Flat before the
// invalidation keeps a consistent old snapshot for as long as it holds the
// slice (the garbage collector pins the arena), while readers arriving
// after see the rewritten bucket. Old-or-new, never torn.
package cache

import (
	"context"
	"sync"
	"sync/atomic"

	"pgridfile/internal/geom"
)

// entryOverhead approximates the bookkeeping bytes an entry costs beyond
// its decoded records: table slot, list links, entry struct, bounding box.
const entryOverhead = 128

// Cache is a sharded, byte-bounded second-chance cache of decoded buckets
// with fenced loads. All methods are safe for concurrent use. Ids
// are bucket ids and must not be negative. The zero value is not usable;
// call New.
type Cache struct {
	shards []shard
	mask   uint32

	// tab is the slot table. Readers load it and an entry slot with no lock.
	// A writer stores id's slots only while it holds the lock of the shard id
	// hashes to (Acquire, Complete, Invalidate, evictLocked), and grow
	// replaces the table only while it holds every shard lock, so a writer
	// always stores into the current table. A reader that loaded the table
	// before a growth may read pre-growth slots; any write acknowledged after
	// that growth was acknowledged after the reader began, so its query
	// overlaps the write and old-or-new holds. A query that starts after an
	// Invalidate returns loads the current table and finds the slot nil.
	tab atomic.Pointer[table]

	// hits is the one counter the whole cache shares: hits take no lock, and
	// each query adds its hits once. Every other count is a shard's.
	hits     atomic.Int64
	maxBytes int64
}

// table is the per-id state, indexed by bucket id. entries is the resident
// set, the only part lock-free readers touch; stamps counts each id's
// invalidations and is kept under the lock of the shard the id hashes to.
type table struct {
	entries []atomic.Pointer[entry]
	stamps  []uint64
}

// entry is one resident bucket. Everything but ref and the list links is
// set before the entry is published in its slot and never changes after.
type entry struct {
	key        int32
	rec        geom.Flat
	bytes      int64
	ref        atomic.Bool // hit since it was inserted or last reached the cold end
	prev, next *entry      // the shard's list; under its lock
}

type shard struct {
	mu       sync.Mutex
	sentinel entry // circular list; sentinel.prev is the cold end eviction sweeps from
	bytes    int64
	max      int64

	// The shard's counts, under mu; Stats sums them over the shards.
	entries       int64
	misses        int64
	evictions     int64
	invalidations int64 // write-path drops (distinct from budget evictions)
}

// Pending is one miss's load: the handle Acquire gives the query that
// missed, which passes it to Complete once its read succeeds. It is also
// the entry the load becomes: Complete fills the embedded entry in and,
// when the result is cached, publishes that entry, so a miss allocates one
// object for both.
type Pending struct {
	entry
	stamp uint64 // the id's invalidation stamp when Acquire handed it out
}

// New creates a cache bounded by maxBytes of decoded bucket data spread
// over the given number of shards (rounded up to a power of two; <= 0
// selects 16). A zero budget keeps nothing: every load is a miss.
func New(maxBytes int64, shards int) *Cache {
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), maxBytes: maxBytes}
	c.tab.Store(new(table))
	per := maxBytes / int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.sentinel.prev = &s.sentinel
		s.sentinel.next = &s.sentinel
		s.max = per
	}
	return c
}

// shardFor hashes a bucket id onto its shard (Fibonacci hashing; bucket ids
// are small dense integers, so multiply-shift spreads adjacent ids well).
func (c *Cache) shardFor(id int32) *shard {
	h := uint32(id) * 2654435761
	return &c.shards[(h>>16)&c.mask]
}

// lookup returns id's entry in the slot table t, or nil.
func lookup(t []atomic.Pointer[entry], id int32) *entry {
	if uint32(id) >= uint32(len(t)) { // a negative id too
		return nil
	}
	return t[id].Load()
}

// mark records a hit on e. The bit is stored only when it is clear, so the
// hits of a resident working set write nothing at all.
func (e *entry) mark() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// grow makes the slot table long enough to hold id. Growth takes every
// shard lock, in order, so that no writer stores into the table it
// replaces; the table only ever grows, so a caller that saw it long enough
// once need not look again.
func (c *Cache) grow(id int32) {
	if int(id) < len(c.tab.Load().entries) {
		return
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	if old := c.tab.Load(); int(id) >= len(old.entries) {
		n := max(int(id)+1, 2*len(old.entries))
		t := &table{entries: make([]atomic.Pointer[entry], n), stamps: make([]uint64, n)}
		for i := range old.entries {
			t.entries[i].Store(old.entries[i].Load())
		}
		copy(t.stamps, old.stamps)
		c.tab.Store(t)
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Resident fills recs[i] for the leading run of ids whose buckets are
// resident and returns the run's length: a query's all-hit path, with no
// lock and one add to the hit counter for the whole run. ids[n], the first
// id that is not resident, is left to Acquire.
func (c *Cache) Resident(ids []int32, recs []geom.Flat) int {
	t := c.tab.Load().entries
	n := 0
	for ; n < len(ids); n++ {
		e := lookup(t, ids[n])
		if e == nil {
			break
		}
		e.mark()
		recs[n] = e.rec
	}
	c.CountHits(n)
	return n
}

// CountHits adds n hits that Acquire answered to the hit counter: a query
// counts its hits once, not once per bucket.
func (c *Cache) CountHits(n int) {
	if n > 0 {
		c.hits.Add(int64(n))
	}
}

// AcquireResult reports how an Acquire was satisfied: a hit (Hit true,
// Rec valid) or a miss (Pending set: the caller reads the bucket and,
// if the read succeeds, hands Pending to Complete once; a failed read just
// drops it).
type AcquireResult struct {
	Rec     geom.Flat
	Hit     bool
	Pending *Pending
}

// hit is Acquire's answer when id is resident in entries.
func hit(entries []atomic.Pointer[entry], id int32) (AcquireResult, bool) {
	e := lookup(entries, id)
	if e == nil {
		return AcquireResult{}, false
	}
	e.mark()
	return AcquireResult{Rec: e.rec, Hit: true}, true
}

// Acquire looks id up and, on a miss, hands the caller a load handle
// carrying id's invalidation stamp. A hit takes no lock and is not counted:
// the caller counts its hits with CountHits.
func (c *Cache) Acquire(id int32) AcquireResult {
	if r, ok := hit(c.tab.Load().entries, id); ok {
		return r
	}
	// Grow before taking the stamp, so an Invalidate from here on finds id
	// in the table and fences this load; and before the shard lock, because
	// growth takes them all.
	c.grow(id)
	s := c.shardFor(id)
	s.mu.Lock()
	// A load may have completed since the look above.
	t := c.tab.Load()
	if r, ok := hit(t.entries, id); ok {
		s.mu.Unlock()
		return r
	}
	p := &Pending{entry: entry{key: id}, stamp: t.stamps[id]}
	s.misses++
	s.mu.Unlock()
	return AcquireResult{Pending: p}
}

// Invalidate drops the given buckets from the cache and stamps their ids so
// any load handed out before this call completes without caching its
// (possibly stale) result. The write path calls this after swapping
// a mutated bucket's placement, making reads-after-write see fresh pages.
// The dropped entries' arenas are never recycled — readers that acquired
// them stay safe — only unlinked, so the collector reclaims each arena when
// its last reader lets go.
func (c *Cache) Invalidate(ids ...int32) {
	for _, id := range ids {
		s := c.shardFor(id)
		s.mu.Lock()
		// An id beyond the table has no entry and no load out (Acquire grows
		// the table first), and any later load reads after this call.
		if t := c.tab.Load(); int(id) < len(t.stamps) {
			t.stamps[id]++
			if e := t.entries[id].Load(); e != nil {
				s.unlink(e)
				s.remove(t, e)
			}
		}
		s.invalidations++
		s.mu.Unlock()
	}
}

// Complete caches the successful load p (evicting cold entries past the
// shard's byte budget), unless an Invalidate has stamped its id since
// Acquire handed p out, another load of the id was cached first, or the
// entry is too large for its shard's entire budget.
func (c *Cache) Complete(p *Pending, rec geom.Flat) {
	p.rec, p.bytes = rec, cost(rec)
	s := c.shardFor(p.key)
	s.mu.Lock()
	t := c.tab.Load() // holds p.key: Acquire grew it to
	if slot := &t.entries[p.key]; p.stamp == t.stamps[p.key] && slot.Load() == nil && p.bytes <= s.max {
		e := &p.entry
		s.pushFront(e)
		slot.Store(e)
		s.bytes += e.bytes
		s.entries++
		s.evictLocked(t)
	}
	s.mu.Unlock()
}

// Get is the one-call form: a hit returns at once, having read no pages, and
// a miss runs load, returns what it read and caches the bucket if the load
// succeeds. ctx is unused, since nothing waits; the signature stays for the
// benchmark's cache layer (bench/layers.go).
func (c *Cache) Get(ctx context.Context, id int32, load func() (geom.Flat, int, error)) (geom.Flat, int, error) {
	r := c.Acquire(id)
	if r.Hit {
		c.CountHits(1)
		return r.Rec, 0, nil
	}
	rec, pages, err := load()
	if err == nil {
		c.Complete(r.Pending, rec)
	}
	return rec, pages, err
}

// cost estimates the resident bytes of one decoded bucket: the arena's
// coordinate array plus fixed per-entry overhead.
func cost(rec geom.Flat) int64 {
	return entryOverhead + 8*int64(len(rec.Coords))
}

// evictLocked sweeps from the cold end until the shard is within budget: an
// entry hit since its last pass loses the mark and moves to the front, the
// first one found unmarked is dropped. Each pass clears a mark or drops an
// entry, so a shard whose every entry is marked still evicts. Caller holds
// s.mu, and t is the current table.
func (s *shard) evictLocked(t *table) {
	for s.bytes > s.max {
		cold := s.sentinel.prev
		if cold == &s.sentinel {
			return
		}
		s.unlink(cold)
		if cold.ref.Load() {
			cold.ref.Store(false)
			s.pushFront(cold)
			continue
		}
		s.remove(t, cold)
		s.evictions++
	}
}

// remove clears unlinked entry e's slot in the current table t and takes it
// off the shard's books. Caller holds s.mu, the lock of e's shard.
func (s *shard) remove(t *table, e *entry) {
	t.entries[e.key].Store(nil)
	s.bytes -= e.bytes
	s.entries--
}

func (s *shard) pushFront(e *entry) {
	e.prev = &s.sentinel
	e.next = s.sentinel.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Shared        int64 `json:"shared"` // always 0; the benchmark (bench/run.go) reads it
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"` // write-path drops
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
	MaxBytes      int64 `json:"max_bytes"`
}

// Stats returns the current counters: the hit counter and the sums of the
// shards' counts, each shard's read under its lock.
func (c *Cache) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), MaxBytes: c.maxBytes}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Bytes += s.bytes
		st.Entries += s.entries
		s.mu.Unlock()
	}
	return st
}
