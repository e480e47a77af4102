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
//     id's in-flight load and invalidation stamp sit beside its slot, and
//     the miss, join, eviction, invalidation, byte and entry counts are the
//     shard's own, summed by Stats.
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
//     arrival leads a fresh read. The channel they wait on is made by the
//     first of them to join, so a miss nobody joins makes none. The
//     Acquire/Complete pair exposes this to callers that batch their disk
//     reads (the server groups leader misses per disk before reading), and
//     Get wraps it for callers with a simple loader function.
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
// with singleflight loading. All methods are safe for concurrent use. Ids
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
// set, the only part lock-free readers touch; loads is kept under the lock
// of the shard the id hashes to.
type table struct {
	entries []atomic.Pointer[entry]
	loads   []load
}

// load is one id's singleflight state. pending is the load in flight, or
// nil. version stamps the id's invalidations: a leader's Pending records it
// at Acquire, and Complete caches the result only if it is unchanged, so a
// load that raced with an Invalidate (read the old pages, completed after
// the write) can never park stale data in the cache. Waiters that joined
// before the Invalidate still receive the leader's (possibly old) result —
// their reads began before the write completed, so that is linearizable. A
// reader arriving after it must not: Acquire replaces the outdated Pending
// with a fresh one that this reader leads and later arrivals join.
type load struct {
	pending *Pending
	version uint64
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

	// The shard's counts, under mu; Stats sums them over the shards.
	entries       int64
	misses        int64
	shared        int64 // singleflight joins: misses served by a leader's read
	evictions     int64
	invalidations int64 // write-path drops (distinct from budget evictions)
}

// Pending is one in-progress load: the handle its leader passes back to
// Complete, and what every other query of the bucket waits on. Wait blocks
// until the leader Completes it or ctx expires. It is also the entry the
// load becomes: Complete fills the embedded entry in and, when the result
// is cached, publishes that entry, so a miss allocates one object for both.
type Pending struct {
	entry
	// done is made by the first query to join the load, under the shard
	// lock, and closed by Complete if it was made: a load nobody joins makes
	// no channel.
	done    chan struct{}
	err     error
	version uint64 // invalidation stamp observed when the leader was elected
}

// Wait returns the leader's result, or ctx's error if the caller's own
// deadline expires first. Only a query that joined the load waits on it;
// its leader has the result already.
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
	c.tab.Store(new(table))
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
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
		t := &table{entries: make([]atomic.Pointer[entry], n), loads: make([]load, n)}
		for i := range old.entries {
			t.entries[i].Store(old.entries[i].Load())
		}
		copy(t.loads, old.loads)
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

// hit is Acquire's answer when id is resident in entries.
func hit(entries []atomic.Pointer[entry], id int32) (AcquireResult, bool) {
	e := lookup(entries, id)
	if e == nil {
		return AcquireResult{}, false
	}
	e.mark()
	return AcquireResult{Rec: e.rec, Pages: e.pages, Hit: true}, true
}

// Acquire looks id up, joining an in-flight load when one exists and
// electing the caller leader otherwise. A hit takes no lock and is not
// counted: the caller counts its hits with CountHits.
func (c *Cache) Acquire(id int32) AcquireResult {
	if r, ok := hit(c.tab.Load().entries, id); ok {
		return r
	}
	c.grow(id) // before the shard lock: growth takes them all
	s := c.shardFor(id)
	s.mu.Lock()
	// A load may have completed since the look above; under the lock the
	// slot and the in-flight load agree.
	t := c.tab.Load()
	if r, ok := hit(t.entries, id); ok {
		s.mu.Unlock()
		return r
	}
	// A load that began before a write since acknowledged may carry data
	// that predates the write, and this reader may not: it is not joined but
	// replaced. Those already waiting on it keep their handle.
	l := &t.loads[id]
	if p := l.pending; p != nil && p.version == l.version {
		if p.done == nil {
			p.done = make(chan struct{})
		}
		s.shared++
		s.mu.Unlock()
		return AcquireResult{Pending: p}
	}
	p := &Pending{entry: entry{key: id}, version: l.version}
	l.pending = p
	s.misses++
	s.mu.Unlock()
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
		// An id beyond the table has no entry and no load in flight (Acquire
		// grows the table first), and any later load reads after this call.
		if t := c.tab.Load(); int(id) < len(t.loads) {
			t.loads[id].version++
			if e := t.entries[id].Load(); e != nil {
				s.unlink(e)
				s.remove(t, e)
			}
		}
		s.invalidations++
		s.mu.Unlock()
	}
}

// Complete finishes the load p this caller leads: the result is published to
// p's waiters and, on success, inserted into the cache (evicting cold entries
// past the shard's byte budget). An entry too large for its shard's entire
// budget is returned to waiters but not cached, and neither is the result of
// a load an Invalidate has outdated.
func (c *Cache) Complete(p *Pending, rec geom.Flat, pages int, err error) {
	p.rec, p.pages, p.bytes, p.err = rec, pages, cost(rec), err
	s := c.shardFor(p.key)
	s.mu.Lock()
	t := c.tab.Load() // holds p.key: Acquire grew it to
	l := &t.loads[p.key]
	if l.pending == p {
		l.pending = nil
	}
	if slot := &t.entries[p.key]; err == nil && p.version == l.version && slot.Load() == nil && p.bytes <= s.max {
		e := &p.entry
		s.pushFront(e)
		slot.Store(e)
		s.bytes += e.bytes
		s.entries++
		s.evictLocked(t)
	}
	// No query joins p once it has left the table, so done is final here.
	done := p.done
	s.mu.Unlock()
	if done != nil {
		close(done)
	}
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
		c.CountHits(1)
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
	Shared        int64 `json:"shared"` // misses absorbed by an in-flight load
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
		st.Shared += s.shared
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Bytes += s.bytes
		st.Entries += s.entries
		s.mu.Unlock()
	}
	return st
}
