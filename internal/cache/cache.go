// Package cache provides the byte-bounded, sharded second-chance bucket
// cache that fronts the page store on the network server's hot path. The
// cached unit is a decoded bucket in arena form: one geom.Flat — a contiguous
// []float64 coordinate array plus a dimension header — keyed by bucket id.
// Five properties matter for the serving path:
//
//   - Lock-free hits: the resident set is one slot table indexed by bucket
//     id (ids are dense), so a hit is a load of the table and of the slot
//     and, at most, one bit — the entry's referenced bit, stored only when
//     it is clear. A hit takes no lock, and Resident counts a query's whole
//     run of hits with one add to the shared counter.
//   - Sharding: writers — a completed load, an invalidation, an eviction —
//     lock the shard the id hashes to, so concurrent misses rarely contend
//     on one mutex.
//   - Byte bound: each shard owns an equal slice of the configured budget
//     and evicts from the cold end of its list whenever an insert pushes it
//     over; the whole cache never holds more than MaxBytes of decoded
//     records (plus bounded per-entry overhead accounted with them).
//   - Second chance: a hit only sets the entry's referenced bit — no list
//     surgery — and eviction, the rare operation, pays for recency: an entry
//     reaching the cold end with the bit set has it cleared and goes round
//     once more; the first one found clear goes.
//   - Singleflight: when several queries miss on the same bucket at once,
//     exactly one (the leader) performs the disk read; the rest wait for
//     its result instead of duplicating the I/O — unless the bucket was
//     invalidated since that read began, in which case the first late
//     arrival leads a fresh read. The Acquire/Complete pair exposes this to
//     callers that batch their disk reads (the server groups leader misses
//     per disk before reading), and Get wraps it for callers with a simple
//     loader function.
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
	"fmt"
	"sync"
	"sync/atomic"

	"pgridfile/internal/geom"
)

// entryOverhead approximates the bookkeeping bytes an entry costs beyond
// its decoded records: table slot, list links, entry struct, bounding box.
const entryOverhead = 128

// Cache is a sharded, byte-bounded second-chance cache of decoded buckets
// with singleflight loading. All methods are safe for concurrent use. The
// zero value is not usable; call New.
type Cache struct {
	shards []shard
	mask   uint32

	// slots is the resident set: slot id holds bucket id's entry, or nil.
	// Readers load the table and a slot with no lock. A writer stores a
	// slot only while it holds the lock of the shard id hashes to
	// (Complete, Invalidate, evictLocked), and grow replaces the table only
	// while it holds every shard lock, so a writer always stores into the
	// current table. A reader that loaded the table before a growth may read
	// pre-growth slots; any write acknowledged after that growth was
	// acknowledged after the reader began, so its query overlaps the write
	// and old-or-new holds. A query that starts after an Invalidate returns
	// loads the current table and finds the slot nil.
	slots atomic.Pointer[[]atomic.Pointer[entry]]

	hits          atomic.Int64
	misses        atomic.Int64
	shared        atomic.Int64 // singleflight joins: misses served by a leader's read
	evictions     atomic.Int64
	invalidations atomic.Int64 // write-path drops (distinct from budget evictions)
	bytes         atomic.Int64
	entries       atomic.Int64
	maxBytes      int64
}

// entry is one resident bucket. Everything but ref and the list links is
// set before the entry is published in its slot and never changes after.
type entry struct {
	key        int32
	rec        geom.Flat
	pages      int
	bytes      int64
	ref        atomic.Bool // hit since it was inserted or last reached the cold end
	prev, next *entry      // the shard's list; under its lock
}

type shard struct {
	mu       sync.Mutex
	sentinel entry // circular list; sentinel.prev is the cold end eviction sweeps from
	bytes    int64
	max      int64
	inflight map[int32]*Pending

	// versions stamps ids that have been invalidated at least once. A
	// leader's Pending records the stamp at Acquire; Complete caches its result
	// only if the stamp is unchanged, so a load that raced with an Invalidate
	// (read the old pages, completed after the write) can never park stale
	// data in the cache. Waiters that joined before the Invalidate still
	// receive the leader's (possibly old) result — their reads began before
	// the write completed, so that is linearizable. A reader arriving after
	// it must not: Acquire replaces the outdated Pending with a fresh one that
	// this reader leads and later arrivals join.
	versions map[int32]uint64
}

// Pending is one in-progress load: the handle its leader passes back to
// Complete, and what every other query of the bucket waits on. Wait blocks
// until the leader Completes it or ctx expires.
type Pending struct {
	id      int32
	done    chan struct{}
	rec     geom.Flat
	pages   int
	err     error
	version uint64 // invalidation stamp observed when the leader was elected
}

// Wait returns the leader's result, or ctx's error if the caller's own
// deadline expires first.
func (p *Pending) Wait(ctx context.Context) (geom.Flat, int, error) {
	select {
	case <-p.done:
		return p.rec, p.pages, p.err
	case <-ctx.Done():
		return geom.Flat{}, 0, ctx.Err()
	}
}

// New creates a cache bounded by maxBytes of decoded bucket data spread
// over the given number of shards (rounded up to a power of two; <= 0
// selects 16). maxBytes must be positive.
func New(maxBytes int64, shards int) *Cache {
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), maxBytes: maxBytes}
	c.slots.Store(new([]atomic.Pointer[entry]))
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.inflight = make(map[int32]*Pending)
		s.versions = make(map[int32]uint64)
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
	if int(id) < len(*c.slots.Load()) {
		return
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	if old := *c.slots.Load(); int(id) >= len(old) {
		t := make([]atomic.Pointer[entry], max(int(id)+1, 2*len(old)))
		for i := range old {
			t[i].Store(old[i].Load())
		}
		c.slots.Store(&t)
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
	t := *c.slots.Load()
	n := 0
	for ; n < len(ids); n++ {
		e := lookup(t, ids[n])
		if e == nil {
			break
		}
		e.mark()
		recs[n] = e.rec
	}
	if n > 0 {
		c.hits.Add(int64(n))
	}
	return n
}

// AcquireResult reports how an Acquire was satisfied. Exactly one of three
// shapes comes back: a hit (Hit true, Rec/Pages valid), leadership (Leader
// true: the caller MUST load the bucket and hand Pending to Complete exactly
// once), or a join (neither: call Pending.Wait).
type AcquireResult struct {
	Rec     geom.Flat
	Pages   int
	Hit     bool
	Leader  bool
	Pending *Pending
}

// hit is Acquire's answer when id is resident.
func (c *Cache) hit(id int32) (AcquireResult, bool) {
	e := lookup(*c.slots.Load(), id)
	if e == nil {
		return AcquireResult{}, false
	}
	e.mark()
	c.hits.Add(1)
	return AcquireResult{Rec: e.rec, Pages: e.pages, Hit: true}, true
}

// Acquire looks id up, joining an in-flight load when one exists and
// electing the caller leader otherwise. A hit takes no lock.
func (c *Cache) Acquire(id int32) AcquireResult {
	if r, ok := c.hit(id); ok {
		return r
	}
	s := c.shardFor(id)
	s.mu.Lock()
	// A load may have completed since the look above; under the lock the
	// slot and the in-flight table agree.
	if r, ok := c.hit(id); ok {
		s.mu.Unlock()
		return r
	}
	// A load that began before a write since acknowledged may carry data
	// that predates the write, and this reader may not: it is not joined but
	// replaced. Those already waiting on it keep their handle.
	if p, ok := s.inflight[id]; ok && p.version == s.versions[id] {
		s.mu.Unlock()
		c.shared.Add(1)
		return AcquireResult{Pending: p}
	}
	p := &Pending{id: id, done: make(chan struct{}), version: s.versions[id]}
	s.inflight[id] = p
	s.mu.Unlock()
	c.misses.Add(1)
	return AcquireResult{Leader: true, Pending: p}
}

// Invalidate drops the given buckets from the cache and stamps their ids so
// any in-flight leader load started before this call completes without
// caching its (now stale) result. The write path calls this after swapping
// a mutated bucket's placement, making reads-after-write see fresh pages.
// The dropped entries' arenas are never recycled — readers that acquired
// them stay safe — only unlinked, so the collector reclaims each arena when
// its last reader lets go.
func (c *Cache) Invalidate(ids ...int32) {
	for _, id := range ids {
		s := c.shardFor(id)
		s.mu.Lock()
		s.versions[id]++
		if e := lookup(*c.slots.Load(), id); e != nil {
			s.unlink(e)
			c.removeLocked(s, e)
		}
		s.mu.Unlock()
		c.invalidations.Add(1)
	}
}

// Complete finishes the load p this caller leads: the result is published to
// p's waiters and, on success, inserted into the cache (evicting cold entries
// past the shard's byte budget). An entry too large for its shard's entire
// budget is returned to waiters but not cached, and neither is the result of
// a load an Invalidate has outdated.
func (c *Cache) Complete(p *Pending, rec geom.Flat, pages int, err error) {
	insert := err == nil && p.id >= 0
	if insert {
		c.grow(p.id) // before the shard lock: growth takes them all
	}
	s := c.shardFor(p.id)
	s.mu.Lock()
	if s.inflight[p.id] == p {
		delete(s.inflight, p.id)
	}
	if insert && p.version == s.versions[p.id] {
		if slot := &(*c.slots.Load())[p.id]; slot.Load() == nil {
			e := &entry{key: p.id, rec: rec, pages: pages, bytes: cost(rec)}
			if e.bytes <= s.max {
				s.pushFront(e)
				slot.Store(e)
				s.bytes += e.bytes
				c.bytes.Add(e.bytes)
				c.entries.Add(1)
				c.evictLocked(s)
			}
		}
	}
	s.mu.Unlock()
	p.rec, p.pages, p.err = rec, pages, err
	close(p.done)
}

// Get is the one-call form: a hit returns immediately, a join waits for the
// in-flight leader, and a miss elects this caller to run load and publish
// its result. ctx bounds only the waiting; the load itself is the caller's.
// A load that panics still Completes the entry (with an error) before the
// panic propagates, so waiters and later acquirers of the id are not wedged
// behind an inflight entry that can never finish.
func (c *Cache) Get(ctx context.Context, id int32, load func() (geom.Flat, int, error)) (geom.Flat, int, error) {
	r := c.Acquire(id)
	switch {
	case r.Hit:
		return r.Rec, r.Pages, nil
	case !r.Leader:
		return r.Pending.Wait(ctx)
	}
	completed := false
	defer func() {
		if !completed {
			c.Complete(r.Pending, geom.Flat{}, 0, fmt.Errorf("cache: leader load for bucket %d panicked", id))
		}
	}()
	rec, pages, err := load()
	completed = true
	c.Complete(r.Pending, rec, pages, err)
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
// s.mu.
func (c *Cache) evictLocked(s *shard) {
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
		c.removeLocked(s, cold)
		c.evictions.Add(1)
	}
}

// removeLocked clears unlinked entry e's slot and takes its bytes off the
// books. Caller holds s.mu, the lock of e's shard.
func (c *Cache) removeLocked(s *shard, e *entry) {
	(*c.slots.Load())[e.key].Store(nil)
	s.bytes -= e.bytes
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
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
	Shared        int64 `json:"shared"` // misses absorbed by an in-flight load
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"` // write-path drops
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
	MaxBytes      int64 `json:"max_bytes"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Bytes:         c.bytes.Load(),
		Entries:       c.entries.Load(),
		MaxBytes:      c.maxBytes,
	}
}
