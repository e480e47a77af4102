package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pgridfile/internal/geom"
)

// makeFlat builds an arena of n 2-D points; each entry costs
// entryOverhead + n*16 bytes in the cache's accounting.
func makeFlat(n int) geom.Flat {
	return geom.Flat{Dims: 2, Coords: make([]float64, 2*n)}
}

func loadOf(rec geom.Flat, pages int) func() (geom.Flat, int, error) {
	return func() (geom.Flat, int, error) { return rec, pages, nil }
}

func TestGetHitMiss(t *testing.T) {
	c := New(1<<20, 4)
	ctx := context.Background()
	rec := makeFlat(10)

	got, pages, err := c.Get(ctx, 1, loadOf(rec, 3))
	if err != nil || got.Len() != 10 || pages != 3 {
		t.Fatalf("first get: %v %d %v", got, pages, err)
	}
	calls := 0
	got, pages, err = c.Get(ctx, 1, func() (geom.Flat, int, error) {
		calls++
		return geom.Flat{}, 0, errors.New("should not be called")
	})
	if err != nil || calls != 0 || got.Len() != 10 || pages != 0 {
		t.Fatalf("hit: calls=%d pages=%d err=%v, want no load and no pages read", calls, pages, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestByteBoundAndEviction(t *testing.T) {
	// One shard so the budget arithmetic is exact; each 100-point 2-D entry
	// costs 128 + 100*16 = 1728 bytes, so an 8000-byte shard fits 4.
	const entryBytes = entryOverhead + 100*16
	c := New(8000, 1)
	ctx := context.Background()
	for id := int32(0); id < 50; id++ {
		if _, _, err := c.Get(ctx, id, loadOf(makeFlat(100), 1)); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Bytes; got > 8000 {
			t.Fatalf("after insert %d: resident bytes %d exceed bound 8000", id, got)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite 50 inserts into a 4-entry budget")
	}
	if want := int64(8000 / entryBytes); st.Entries != want {
		t.Errorf("resident entries = %d, want %d", st.Entries, want)
	}
	if st.Bytes != st.Entries*entryBytes {
		t.Errorf("bytes = %d, want %d", st.Bytes, st.Entries*entryBytes)
	}
}

func TestLRUOrder(t *testing.T) {
	// Budget of 3 entries in one shard; touching id 0 between inserts must
	// keep it resident while colder ids rotate out — the property an LRU
	// list gave, kept by the second-chance sweep: 0 is always marked when it
	// reaches the cold end.
	const entryBytes = entryOverhead + 10*16
	c := New(3*entryBytes, 1)
	ctx := context.Background()
	for id := int32(0); id < 3; id++ {
		c.Get(ctx, id, loadOf(makeFlat(10), 1))
	}
	for id := int32(3); id < 10; id++ {
		// Touch 0, then insert a new id: the eviction victim must never be 0.
		if _, _, err := c.Get(ctx, 0, func() (geom.Flat, int, error) {
			return geom.Flat{}, 0, errors.New("id 0 evicted despite being hot")
		}); err != nil {
			t.Fatal(err)
		}
		c.Get(ctx, id, loadOf(makeFlat(10), 1))
	}
	if c.Stats().Entries != 3 {
		t.Errorf("resident entries = %d, want 3", c.Stats().Entries)
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	c := New(1000, 1) // below one 100-point entry (1728 bytes)
	ctx := context.Background()
	calls := 0
	load := func() (geom.Flat, int, error) { calls++; return makeFlat(100), 1, nil }
	if _, _, err := c.Get(ctx, 7, load); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != 0 || c.Stats().Bytes != 0 {
		t.Errorf("oversize entry cached: %+v", c.Stats())
	}
	c.Get(ctx, 7, load)
	if calls != 2 {
		t.Errorf("loader ran %d times, want 2 (oversize entries are never cached)", calls)
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New(1<<20, 2)
	ctx := context.Background()
	boom := errors.New("disk gone")
	if _, _, err := c.Get(ctx, 3, func() (geom.Flat, int, error) { return geom.Flat{}, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("load error not surfaced: %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("failed load left a cache entry")
	}
	rec, _, err := c.Get(ctx, 3, loadOf(makeFlat(5), 1))
	if err != nil || rec.Len() != 5 {
		t.Fatalf("retry after failed load: %v %v", rec, err)
	}
}

// TestConcurrentMixed drives many goroutines over a small working set with
// a tight byte budget under -race: hits, misses and evictions all
// interleave, the bound must hold throughout, and the counters must
// reconcile with the number of operations issued.
func TestConcurrentMixed(t *testing.T) {
	const entryBytes = entryOverhead + 20*16
	c := New(8*entryBytes, 4)
	ctx := context.Background()
	const (
		readers = 16
		rounds  = 200
		idSpace = 32
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := int32((r*7 + i) % idSpace)
				rec, _, err := c.Get(ctx, id, loadOf(makeFlat(20), 1))
				if err != nil {
					errs <- err
					return
				}
				if rec.Len() != 20 {
					errs <- fmt.Errorf("id %d: %d records", id, rec.Len())
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Bytes > 8*entryBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, 8*entryBytes)
	}
	if st.Hits+st.Misses+st.Shared != readers*rounds || st.Shared != 0 {
		t.Errorf("ops accounted = %d, want %d with none shared (%+v)",
			st.Hits+st.Misses+st.Shared, readers*rounds, st)
	}
}

func TestInvalidateDropsResidentEntry(t *testing.T) {
	c := New(1<<20, 4)
	ctx := context.Background()
	if _, _, err := c.Get(ctx, 7, loadOf(makeFlat(10), 1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("entries = %d, want 1", c.Stats().Entries)
	}
	c.Invalidate(7, 8) // 8 is absent: must still be a safe no-op drop
	if c.Stats().Entries != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("after invalidate: %d entries, %d bytes", c.Stats().Entries, c.Stats().Bytes)
	}
	if got := c.Stats().Invalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
	calls := 0
	if _, _, err := c.Get(ctx, 7, func() (geom.Flat, int, error) {
		calls++
		return makeFlat(5), 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("read after invalidate did not reload (calls=%d)", calls)
	}
}

// TestAcquireAfterInvalidateDoesNotJoinStaleLoad: every Acquire after an
// Invalidate gets a load of its own, stamped after the write, never the load
// handed out before it; and whichever of the two loads completes first, the
// fresh one ends cached and the outdated one does not.
func TestAcquireAfterInvalidateDoesNotJoinStaleLoad(t *testing.T) {
	old, fresh := makeFlat(9), makeFlat(4)
	for _, staleFirst := range []bool{false, true} {
		c := New(1<<20, 1)
		a := c.Acquire(3)
		if a.Hit || a.Pending == nil {
			t.Fatalf("acquire on an empty cache: %+v, want a miss", a)
		}
		c.Invalidate(3)
		b := c.Acquire(3)
		if b.Hit || b.Pending == nil || b.Pending == a.Pending {
			t.Fatalf("acquire after invalidate: %+v, want a load of its own", b)
		}
		// Every later reader before a completion also loads on its own.
		var late [8]AcquireResult
		for i := range late {
			late[i] = c.Acquire(3)
			if late[i].Hit || late[i].Pending == nil || late[i].Pending == a.Pending || late[i].Pending == b.Pending {
				t.Fatalf("late reader %d: %+v, want a load of its own", i, late[i])
			}
		}
		if staleFirst {
			c.Complete(a.Pending, old)
			if r := c.Acquire(3); r.Hit {
				t.Fatalf("acquire after the outdated completion: %d records cached, want a miss", r.Rec.Len())
			}
			c.Complete(b.Pending, fresh)
		} else {
			c.Complete(b.Pending, fresh)
			c.Complete(a.Pending, old) // the outdated load, last to report
		}
		for i := range late { // the fresh bucket is already cached: no-ops
			c.Complete(late[i].Pending, fresh)
		}
		if r := c.Acquire(3); !r.Hit || r.Rec.Len() != 4 {
			t.Fatalf("staleFirst=%v: acquire after both reported: %+v, want a hit on the fresh bucket", staleFirst, r)
		}
		wantMisses := int64(2 + len(late))
		if staleFirst {
			wantMisses++ // the acquire between the two completions
		}
		if st := c.Stats(); st.Misses != wantMisses || st.Entries != 1 {
			t.Fatalf("staleFirst=%v: %d misses, %d entries; want %d and 1", staleFirst, st.Misses, st.Entries, wantMisses)
		}
	}
}

// TestInvalidateRacingLeader pins the stale-load fence: a load handed out
// before an Invalidate may have read the bucket's old pages, so Complete must
// not cache it — alone, in either order with a load handed out after the
// Invalidate, and when its id lay beyond the slot table at Acquire — while
// the load handed out after does cache. The racing half runs the same
// ordering under the scheduler: whatever ends resident is the write's.
func TestInvalidateRacingLeader(t *testing.T) {
	old, fresh := makeFlat(9), makeFlat(4)
	for _, tc := range []struct {
		name       string
		id         int32 // the table holds ids 0..15 at the first Acquire
		after      bool  // a second load is handed out after the Invalidate
		staleFirst bool  // the outdated load completes before that one
	}{
		{"alone", 3, false, false},
		{"fresh completes first", 3, true, false},
		{"stale completes first", 3, true, true},
		{"beyond the table", 1000, false, false},
	} {
		c := New(1<<20, 4)
		if _, _, err := c.Get(context.Background(), 15, loadOf(makeFlat(1), 1)); err != nil {
			t.Fatal(err)
		}
		a := c.Acquire(tc.id)
		if a.Hit || a.Pending == nil {
			t.Fatalf("%s: acquire on a cold id: %+v, want a miss", tc.name, a)
		}
		c.Invalidate(tc.id) // the bucket is rewritten while a's read is out
		var b AcquireResult
		if tc.after {
			if b = c.Acquire(tc.id); b.Hit || b.Pending == nil || b.Pending == a.Pending {
				t.Fatalf("%s: acquire after invalidate: %+v, want a load of its own", tc.name, b)
			}
		}
		if tc.staleFirst {
			c.Complete(a.Pending, old)
		}
		if tc.after {
			c.Complete(b.Pending, fresh)
		}
		if !tc.staleFirst {
			c.Complete(a.Pending, old)
		}
		r := c.Acquire(tc.id)
		if !tc.after {
			// Nothing fresh was loaded yet: the id must miss, and this load
			// caches.
			if r.Hit {
				t.Fatalf("%s: the outdated load was cached: %d records", tc.name, r.Rec.Len())
			}
			c.Complete(r.Pending, fresh)
			r = c.Acquire(tc.id)
		}
		if !r.Hit || r.Rec.Len() != 4 {
			t.Fatalf("%s: %+v, want a hit on the fresh bucket", tc.name, r)
		}
		if st := c.Stats(); st.Misses != 3 || st.Entries != 2 {
			t.Fatalf("%s: %d misses, %d entries; want 3 and 2", tc.name, st.Misses, st.Entries)
		}
	}

	// Racing: each loader takes its stamp, then reads the bucket's version,
	// then completes, as the server's miss path does; the writer swaps the
	// version, then invalidates, as the write path does.
	const rounds, loaders = 500, 4
	c := New(1<<20, 2)
	for round := 0; round < rounds; round++ {
		id := int32(round % 64)
		c.Invalidate(id) // drop an earlier round's entry
		var version atomic.Int64
		var wg sync.WaitGroup
		for l := 0; l < loaders; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := c.Acquire(id)
				if r.Hit {
					return
				}
				v := float64(version.Load())
				runtime.Gosched() // the read's I/O
				c.Complete(r.Pending, geom.Flat{Dims: 2, Coords: []float64{v, 0}})
			}()
		}
		if round%2 == 0 {
			runtime.Gosched() // let some loaders in before the write
		}
		version.Store(1)
		c.Invalidate(id)
		wg.Wait()
		if r := c.Acquire(id); r.Hit && r.Rec.Coords[0] != 1 {
			t.Fatalf("round %d: a load begun before the write stayed cached", round)
		}
	}
}

// TestArenaPinnedAcrossInvalidate is the arena-lifetime property the
// zero-copy serving path depends on: a reader that acquired a bucket's Flat
// keeps a stable old snapshot while Invalidate + a rewrite land and later
// readers see the new data — old-or-new, never freed or torn. Concurrent
// re-reads of the pinned arena run against the writer under -race, so a
// buffer-recycling bug here would be a report, not a flake.
func TestArenaPinnedAcrossInvalidate(t *testing.T) {
	c := New(1<<20, 1)
	ctx := context.Background()

	old := makeFlat(64)
	for i := range old.Coords {
		old.Coords[i] = 1.0
	}
	pinned, _, err := c.Get(ctx, 11, loadOf(old, 1))
	if err != nil {
		t.Fatal(err)
	}

	// The reader holds its snapshot open while the write path churns the
	// bucket through many invalidate+rewrite cycles.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < pinned.Len(); i++ {
				row := pinned.Row(i)
				for _, v := range row {
					if v != 1.0 {
						t.Errorf("pinned arena mutated: saw %v, want 1.0", v)
						return
					}
				}
			}
		}
	}()

	for round := 0; round < 100; round++ {
		c.Invalidate(11)
		fresh := makeFlat(64)
		for i := range fresh.Coords {
			fresh.Coords[i] = float64(round + 2)
		}
		if _, _, err := c.Get(ctx, 11, loadOf(fresh, 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// A fresh acquire sees the last rewrite, not the pinned snapshot.
	got, _, err := c.Get(ctx, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 || got.Coords[0] != 101 {
		t.Fatalf("post-rewrite read got len=%d first=%v, want 64/101", got.Len(), got.Coords[0])
	}
	// And the pinned snapshot still reads old.
	if pinned.Coords[0] != 1.0 {
		t.Fatalf("pinned snapshot changed: %v", pinned.Coords[0])
	}
}

// resident reports whether id is cached, without the hit an Acquire would
// mark it with.
func resident(c *Cache, id int32) bool {
	return lookup(c.tab.Load().entries, id) != nil
}

// TestSecondChanceSurvivesOneSweep: an entry hit once passes the cold end
// once — the entry behind it goes instead — and, not hit again, is the
// victim the next time it gets there.
func TestSecondChanceSurvivesOneSweep(t *testing.T) {
	const entryBytes = entryOverhead + 10*16
	c := New(3*entryBytes, 1)
	ctx := context.Background()
	insert := func(id int32) { c.Get(ctx, id, loadOf(makeFlat(10), 1)) }
	for id := int32(0); id < 3; id++ {
		insert(id)
	}
	if r := c.Acquire(0); !r.Hit {
		t.Fatal("id 0 not resident after its insert")
	}
	// Cold end first, the list reads 0* 1 2; each insert evicts one entry.
	for _, step := range []struct{ insert, victim int32 }{
		{3, 1}, // 0 is marked: unmarked, moved to the front, 1 goes instead
		{4, 2},
		{5, 3},
		{6, 0}, // 0 is back at the cold end with no hit since
	} {
		insert(step.insert)
		if resident(c, step.victim) {
			t.Fatalf("insert of %d: id %d still resident", step.insert, step.victim)
		}
		if step.victim != 0 && !resident(c, 0) {
			t.Fatalf("insert of %d evicted id 0 before its second arrival at the cold end", step.insert)
		}
		if c.Stats().Entries != 3 {
			t.Fatalf("insert of %d: %d entries, want 3", step.insert, c.Stats().Entries)
		}
	}
	if got := c.Stats().Evictions; got != 4 {
		t.Errorf("evictions = %d, want 4", got)
	}
}

// TestAllReferencedShardStillEvicts: a sweep over a shard whose every entry
// is marked ends — it unmarks them all and then takes the first unmarked
// entry it meets — and the byte bound holds afterwards.
func TestAllReferencedShardStillEvicts(t *testing.T) {
	const entryBytes = entryOverhead + 10*16
	c := New(3*entryBytes, 1)
	ctx := context.Background()
	for id := int32(0); id < 3; id++ {
		c.Get(ctx, id, loadOf(makeFlat(10), 1))
	}
	for round := int32(0); round < 5; round++ {
		for id := int32(0); id < 100; id++ {
			if resident(c, id) {
				c.Acquire(id)
			}
		}
		c.Get(ctx, 100+round, loadOf(makeFlat(10), 1))
		st := c.Stats()
		if st.Entries != 3 || st.Bytes != 3*entryBytes || st.Evictions != int64(round)+1 {
			t.Fatalf("round %d: %+v, want 3 entries, %d bytes, %d evictions",
				round, st, 3*entryBytes, round+1)
		}
	}
}

// TestInvalidateReferencedEntry: the mark does not protect an entry from
// the write path, and the reload that follows starts unmarked.
func TestInvalidateReferencedEntry(t *testing.T) {
	const entryBytes = entryOverhead + 10*16
	c := New(2*entryBytes, 1)
	ctx := context.Background()
	c.Get(ctx, 1, loadOf(makeFlat(10), 1))
	c.Acquire(1)
	c.Invalidate(1)
	if resident(c, 1) || c.Stats().Bytes != 0 {
		t.Fatalf("marked entry survived Invalidate: %+v", c.Stats())
	}
	r := c.Acquire(1)
	if r.Hit {
		t.Fatalf("acquire after invalidate: %+v, want a miss", r)
	}
	c.Complete(r.Pending, makeFlat(10))
	c.Get(ctx, 2, loadOf(makeFlat(10), 1))
	c.Get(ctx, 3, loadOf(makeFlat(10), 1)) // 1 is coldest and unmarked: it goes
	if resident(c, 1) || !resident(c, 2) || !resident(c, 3) {
		t.Errorf("reloaded entry kept a mark from before its invalidation")
	}
}

// TestByteBoundUnderRandomOps drives Acquire/Complete/Invalidate at random
// from several goroutines over entries of mixed size and checks after every
// step that no shard holds more than its budget whenever its lock is free —
// so the cache as a whole never does — and, once the dust settles, that the
// shards' lists and the slot table hold the same entries, and that each shard's byte and entry counts, and the
// totals Stats sums from them, agree with a walk of the lists and stay under
// the bound.
func TestByteBoundUnderRandomOps(t *testing.T) {
	const maxBytes = 16 << 10
	c := New(maxBytes, 4)
	check := func() {
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			b, limit := s.bytes, s.max
			s.mu.Unlock()
			if b > limit {
				t.Errorf("shard %d holds %d bytes, budget %d", i, b, limit)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				id := int32(rng.Intn(96))
				switch op := rng.Intn(10); {
				case op == 0:
					c.Invalidate(id)
				default:
					if r := c.Acquire(id); !r.Hit {
						c.Complete(r.Pending, makeFlat(1+rng.Intn(120)))
					}
				}
				check()
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	var bytes, entries int64
	listed := map[*entry]bool{}
	tab := c.tab.Load()
	for i := range c.shards {
		s := &c.shards[i]
		var shardBytes, shardEntries int64
		for e := s.sentinel.next; e != &s.sentinel; e = e.next {
			if c.shardFor(e.key) != s {
				t.Errorf("bucket %d is listed in shard %d, not the one it hashes to", e.key, i)
			}
			if got := lookup(tab.entries, e.key); got != e {
				t.Errorf("shard %d lists bucket %d, its slot holds %p", i, e.key, got)
			}
			listed[e] = true
			shardBytes += e.bytes
			shardEntries++
		}
		if shardBytes != s.bytes || shardEntries != s.entries {
			t.Errorf("shard %d lists %d bytes in %d entries, counts %d in %d", i, shardBytes, shardEntries, s.bytes, s.entries)
		}
		bytes += shardBytes
		entries += shardEntries
	}
	for id := range tab.entries {
		if e := tab.entries[id].Load(); e != nil && (!listed[e] || e.key != int32(id)) {
			t.Errorf("slot %d holds bucket %d, listed %v", id, e.key, listed[e])
		}
	}
	if st := c.Stats(); st.Bytes != bytes || st.Entries != entries || st.Bytes > maxBytes {
		t.Errorf("stats say %d bytes in %d entries, shards hold %d in %d, bound %d", st.Bytes, st.Entries, bytes, entries, maxBytes)
	}
}

// TestResidentNeverReturnsInvalidatedArena races lock-free readers against
// writers that invalidate and reload ids spread far enough apart to grow the
// slot table several times while the readers run. Every arena carries its
// bucket id and a version in its two coordinates. A writer stores a new
// version — what a load reads from then on — calls Invalidate, and once that
// has returned acknowledges the version. A Resident or Acquire that starts
// after the acknowledgement must see that version or a later one, never the
// arena it replaced.
func TestResidentNeverReturnsInvalidatedArena(t *testing.T) {
	const (
		writers = 4
		perW    = 8
		rounds  = 300
	)
	c := New(64<<20, 4)
	// ids[w][j] is writer w's j-th id; spacing them out quadratically
	// forces growths as the rounds reach the later ones.
	var ids [writers][perW]int32
	var stored, acked [writers][perW]atomic.Int64
	for w := range ids {
		for j := range ids[w] {
			ids[w][j] = int32(w + writers*64*j*(j+1))
		}
	}
	arena := func(id int32, v int64) geom.Flat {
		return geom.Flat{Dims: 2, Coords: []float64{float64(id), float64(v)}}
	}
	check := func(id int32, floor int64, rec geom.Flat) error {
		if rec.Coords[0] != float64(id) {
			return fmt.Errorf("bucket %d returned bucket %v's arena", id, rec.Coords[0])
		}
		if v := int64(rec.Coords[1]); v < floor {
			return fmt.Errorf("bucket %d: version %d returned after version %d was acknowledged", id, v, floor)
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			recs := make([]geom.Flat, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, j := rng.Intn(writers), rng.Intn(perW)
				id := ids[w][j]
				floor := acked[w][j].Load()
				var err error
				if rng.Intn(2) == 0 {
					if c.Resident([]int32{id}, recs) == 1 {
						err = check(id, floor, recs[0])
					}
				} else if a := c.Acquire(id); a.Hit {
					err = check(id, floor, a.Rec)
				} else {
					// A miss reads what is stored after its stamp was taken.
					c.Complete(a.Pending, arena(id, stored[w][j].Load()))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				j := round % perW
				id := ids[w][j]
				v := stored[w][j].Add(1)
				c.Invalidate(id)
				acked[w][j].Store(v)
				if r := c.Acquire(id); !r.Hit {
					c.Complete(r.Pending, arena(id, stored[w][j].Load()))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(c.tab.Load().entries); n <= int(ids[writers-1][perW-1]) {
		t.Fatalf("slot table of %d slots, shorter than the largest id %d", n, ids[writers-1][perW-1])
	}
}

// BenchmarkAcquireHit is the cache's share of a resident read: Acquire on an
// entry that is there, cycling over more ids than fit a CPU cache line's
// worth of entries so every shard is visited.
func BenchmarkAcquireHit(b *testing.B) {
	c, ids := residentCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Acquire(int32(i % ids)); !r.Hit {
			b.Fatal("miss on a resident id")
		}
	}
}

// BenchmarkAcquireHitParallel is BenchmarkAcquireHit from every P at once:
// the cross-core cost of a hit — a lock or a shared counter bouncing between
// caches — shows only when several goroutines share the cache.
func BenchmarkAcquireHitParallel(b *testing.B) {
	c, ids := residentCache()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if r := c.Acquire(int32(i % ids)); !r.Hit {
				b.Error("miss on a resident id")
				return
			}
		}
	})
}

// residentCache returns a cache holding buckets 0 to ids-1.
func residentCache() (c *Cache, ids int) {
	const n = 4096
	c = New(64<<20, 0)
	for id := int32(0); id < n; id++ {
		c.Get(context.Background(), id, loadOf(makeFlat(40), 1))
	}
	return c, n
}
