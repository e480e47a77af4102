package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
)

// reusablePages lists, per disk and in order, every page a writable store
// will hand out again: free now, retired at the last epoch flip, or
// superseded since.
func reusablePages(s *Store) map[int][]int64 {
	out := map[int][]int64{}
	add := func(x extent) {
		for p := range x.pages {
			out[x.disk] = append(out[x.disk], x.page+int64(p))
		}
	}
	for k, st := range s.w.free {
		for _, p := range st {
			add(extent{k, p})
		}
	}
	for _, x := range s.w.retired {
		add(x)
	}
	for _, x := range s.w.superseded {
		add(x)
	}
	for _, ps := range out {
		slices.Sort(ps)
	}
	return out
}

// rewrittenPages adds to perDisk the pages a mutation's rewrites wrote on
// each disk: every copy of every bucket it made stale that is still live. It
// returns the most pages one rewritten copy spans.
func rewrittenPages(s *Store, m Mutation, perDisk []int64) (widest int) {
	for _, id := range m.Stale {
		if !s.Grid().ForEachRecordInBucket(id, func([]float64, []byte) {}) {
			continue // retired by a merge: not rewritten
		}
		pl, _ := s.Placement(id)
		for _, d := range pl.OwnerDisks {
			perDisk[d] += int64(pl.Pages)
		}
		widest = max(widest, pl.Pages)
	}
	return widest
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestConcurrentReadsAgreeWithModel races readers against one writer that
// checkpoints every 16 inserts, so superseded pages are reused all through
// the run: a point read of an acknowledged key must find it exactly once,
// and a whole-domain count must lie between the inserts acknowledged before
// it and those sent by its end — whenever the grid generation the read
// translated under still stands once it has read. A reader handed a page
// some other bucket now occupies fails to decode or misses its key.
func TestConcurrentReadsAgreeWithModel(t *testing.T) {
	const base, readers = 600, 4
	inserts := 1500
	if testing.Short() {
		inserts = 500
	}
	dir, f, _ := buildReplicatedLayoutOf(t, base, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(16)
	keys := randKeys(f.Domain(), inserts, 41)
	dom := f.Domain()
	ctx := context.Background()

	// readIDs reads ids, each from the owner PickOwner chooses, and reports
	// whether the grid generation gen still stands afterwards.
	readIDs := func(ids []int32, gen uint64) ([]geom.Flat, bool, error) {
		out := make([]geom.Flat, len(ids))
		for i, id := range ids {
			d, ok := s.PickOwner(id, -1)
			if !ok {
				return nil, false, fmt.Errorf("bucket %d: no owner", id)
			}
			if _, err := s.ReadFlatsFromTimed(ctx, d, ids[i:i+1], out[i:i+1], nil); err != nil {
				return nil, false, err
			}
		}
		return out, s.GridGen() == gen, nil
	}

	var sent, acked atomic.Int64
	var reads, checked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := base + acked.Load()
				s.RLockGrid()
				gen := s.GridGen()
				var ids []int32
				var key geom.Point
				if n := int(floor - base); r%2 == 0 && n > 0 {
					key = keys[rng.Intn(n)]
					id, _ := s.Grid().BucketAt(key)
					ids = []int32{id}
				} else {
					ids = s.Grid().BucketsInRange(dom)
				}
				s.RUnlockGrid()
				out, stands, err := readIDs(ids, gen)
				reads.Add(1)
				if err != nil {
					t.Errorf("read of %d buckets: %v", len(ids), err)
					return
				}
				if !stands {
					continue
				}
				checked.Add(1)
				if key != nil {
					found := 0
					for i := 0; i < out[0].Len(); i++ {
						if samePoint(out[0].Row(i), key) {
							found++
						}
					}
					if found != 1 {
						t.Errorf("acknowledged key %v found %d times in bucket %d", key, found, ids[0])
					}
					continue
				}
				n := 0
				for _, fl := range out {
					n += fl.Len()
				}
				if ceil := base + sent.Load(); int64(n) < floor || int64(n) > ceil {
					t.Errorf("whole-domain count %d, want between %d and %d", n, floor, ceil)
				}
			}
		}(r)
	}
	grown, written := sum(s.w.nextPage), make([]int64, 4)
	for _, key := range keys {
		sent.Add(1)
		m, err := s.Insert(ctx, key)
		if err != nil {
			t.Error(err)
			break
		}
		acked.Add(1)
		rewrittenPages(s, m, written)
	}
	close(done)
	wg.Wait()
	grown = sum(s.w.nextPage) - grown
	t.Logf("%d reads (%d under a standing generation); %d page copies rewritten, files grew by %d pages",
		reads.Load(), checked.Load(), sum(written), grown)
	if grown >= sum(written) {
		t.Errorf("files grew by %d pages for %d rewritten: no page was reused", grown, sum(written))
	}
	verifyStoreMatchesGrid(t, s, s.Grid())
}

// TestPlacementTableGrowsUnderReaders races lock-free placement readers —
// PickOwner and ReadFlatsFromTimed over every bucket of a whole-domain
// translation — against a writer that inserts into a layout of a few buckets
// until the placement table has grown several times, then deletes until
// buddies merge, checkpointing every 16 operations. After every operation
// returns, the table's non-nil slots must be exactly the grid's live buckets:
// a merge retires its bucket's placement at once. No lookup may miss while
// the writer only inserts, nor under a grid generation that still stands
// after the read, and then the records read must number between what the
// writer had surely applied and what it may have:
// inserts acknowledged before the read less deletes sent by its end, and
// inserts sent by its end less deletes acknowledged before it. A table
// published before its slots were copied, or a growth that lost a slot,
// fails it; under -race, so does a slot stored without the atomics.
func TestPlacementTableGrowsUnderReaders(t *testing.T) {
	const base, readers, inserts = 60, 2, 700
	dir, f, _ := buildReplicatedLayoutOf(t, base, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(16)
	keys := randKeys(f.Domain(), inserts, 43)
	dom := f.Domain()
	ctx := context.Background()

	var insSent, insAcked, delSent, delAcked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one := make([]geom.Flat, 1)
			for {
				select {
				case <-done:
					return
				default:
				}
				insA, delA := insAcked.Load(), delAcked.Load()
				s.RLockGrid()
				gen := s.GridGen()
				ids := s.Grid().BucketsInRange(dom)
				s.RUnlockGrid()
				n := int64(0)
				var err error
				for _, id := range ids {
					d, ok := s.PickOwner(id, -1)
					if !ok {
						err = fmt.Errorf("bucket %d: no owner", id)
						break
					}
					if _, err = s.ReadFlatsFromTimed(ctx, d, []int32{id}, one, nil); err != nil {
						break
					}
					n += int64(one[0].Len())
				}
				// Until the first delete no bucket goes away, so no lookup
				// may miss whatever the generation did; after it, a merge
				// may have dropped a bucket this translation named.
				stands := s.GridGen() == gen
				if err != nil && (stands || delSent.Load() == 0) {
					t.Errorf("read of %d buckets: %v", len(ids), err)
					return
				}
				if !stands || err != nil {
					continue // a split or a merge voided the translation
				}
				lo, hi := base+insA-delSent.Load(), base+insSent.Load()-delA
				if n < lo || n > hi {
					t.Errorf("whole-domain count %d, want between %d and %d", n, lo, hi)
					return
				}
			}
		}()
	}
	// placedAsLive fails the test unless the table's non-nil slots are the
	// grid's live bucket ids; only this goroutine writes, so between its
	// operations neither changes.
	placedAsLive := func(after string) {
		var placed, live []int32
		t0 := *s.places.Load()
		for id := range t0 {
			if t0[id].Load() != nil {
				placed = append(placed, int32(id))
			}
		}
		for _, v := range s.Grid().Buckets() {
			live = append(live, v.ID)
		}
		if !slices.Equal(placed, live) {
			t.Fatalf("after %s: placements for buckets %v, the grid's live buckets are %v", after, placed, live)
		}
	}
	slots, growths, merges := len(*s.places.Load()), 0, 0
	for _, key := range keys {
		insSent.Add(1)
		if _, err := s.Insert(ctx, key); err != nil {
			t.Fatal(err)
		}
		insAcked.Add(1)
		placedAsLive("an insert")
		if n := len(*s.places.Load()); n != slots {
			slots, growths = n, growths+1
		}
	}
	for _, key := range keys[:inserts/2] {
		delSent.Add(1)
		m, err := s.Delete(ctx, key)
		if err != nil || !m.Applied {
			t.Fatalf("delete of %v: applied %v, %v", key, m.Applied, err)
		}
		delAcked.Add(1)
		placedAsLive("a delete")
		if len(m.Stale) == 2 { // the bucket kept and the one merged away
			merges++
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	t.Logf("the table grew %d times to %d slots; %d merges", growths, slots, merges)
	if growths < 3 || merges == 0 {
		t.Errorf("%d growths and %d merges: the writer did not exercise the table", growths, merges)
	}
	verifyStoreMatchesGrid(t, s, s.Grid())
}

// TestPlacementTableGrowth races lock-free lookups against two writers that
// publish placements for interleaved ids, each store under the writer lock
// (w.mu) alone, so the table grows from empty fifteen times, copying up to
// 16 384 slots. A reader that looks up an id a writer has acknowledged must
// find that id's placement: a table published before its slots are copied,
// or a growth that copies them outside the writer lock and so loses the other
// writer's store, hands it nil.
func TestPlacementTableGrowth(t *testing.T) {
	const n, writers, readers = 1 << 15, 2, 2
	s := &Store{w: &writer{}}
	s.places.Store(new([]atomic.Pointer[Placement]))
	var acked [writers]atomic.Int64 // writer w has published ids w, w+writers, … below acked[w] of them
	done := make(chan struct{})
	errs := make(chan error, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				w := rng.Intn(writers)
				k := acked[w].Load()
				if k == 0 {
					continue
				}
				// The latest ids as often as the rest: they are the ones a
				// growth has just copied.
				j := k - 1 - rng.Int63n(min(k, 64))
				if rng.Intn(2) == 0 {
					j = rng.Int63n(k)
				}
				id := int32(w + writers*int(j))
				if pl := s.placement(id); pl == nil || pl.ID != id {
					errs <- fmt.Errorf("bucket %d acknowledged, lookup gave %v", id, pl)
					return
				}
			}
		}(int64(r))
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for id := w; id < n; id += writers {
				pl := &Placement{ID: int32(id)}
				s.w.mu.Lock()
				s.setPlacement(int32(id), pl)
				s.w.mu.Unlock()
				acked[w].Add(1)
			}
		}(w)
	}
	wwg.Wait()
	close(done)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for id := int32(0); id < n; id++ {
		if pl := s.placement(id); pl == nil || pl.ID != id {
			t.Fatalf("bucket %d: lookup gave %v after every writer returned", id, pl)
		}
	}
}

// TestPinnedReaderOutlivesCheckpoints holds one batch read between its
// placement lookup and its pread (an injected read delay) while the writer
// rewrites that very bucket, and a run of others on the same disk, across
// several checkpoints. The page the reader looked up is superseded and
// committed away long before the pread; it must not be handed to another
// rewrite while the reader holds it, so the read decodes its own bucket as
// it was when it looked it up.
func TestPinnedReaderOutlivesCheckpoints(t *testing.T) {
	dir, f, _ := buildReplicatedLayoutOf(t, 600, 4, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(4)
	reg := fault.NewRegistry(1)
	s.SetFaults(reg)
	ctx := context.Background()

	keys := randKeys(f.Domain(), 160, 51)
	target, _ := s.Grid().BucketAt(keys[0])
	pl, _ := s.Placement(target)
	var want [][2]float64
	s.Grid().ForEachRecordInBucket(target, func(key []float64, _ []byte) {
		want = append(want, [2]float64{key[0], key[1]})
	})
	slices.SortFunc(want, cmpRow)

	if err := reg.SetSpec(fault.StoreReadDiskSite(pl.Disk) + ":delay=2s"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		fl  geom.Flat
		err error
	}
	held := make(chan result, 1)
	go func() {
		out := make([]geom.Flat, 1)
		_, err := s.ReadFlatsFromTimed(ctx, pl.Disk, []int32{target}, out, nil)
		held <- result{out[0], err}
	}()
	for reg.Total() == 0 { // the reader has its placement and sleeps
		time.Sleep(time.Millisecond)
	}
	reg.Clear()

	// Rewrite the target first, then as many buckets on its disk as fit in
	// the delay, so the target's old page is retired early and a 1-page
	// extent on that disk is wanted again and again.
	lsn0 := s.w.checkpointLSN
	inserted := 0
	for _, key := range keys {
		id, _ := s.Grid().BucketAt(key)
		if p, _ := s.Placement(id); p.Disk != pl.Disk {
			continue
		}
		if _, err := s.Insert(ctx, key); err != nil {
			t.Fatal(err)
		}
		inserted++
	}
	lsn := s.w.checkpointLSN
	select {
	case <-held:
		t.Fatal("the read returned before the writer was done; lengthen its delay")
	default:
	}
	if checkpoints := (lsn - lsn0) / 4; checkpoints < 2 {
		t.Fatalf("%d checkpoints while the read was held, want at least 2", checkpoints)
	}
	if now, _ := s.Placement(target); now.Page == pl.Page {
		t.Fatal("the target bucket was never rewritten")
	}

	r := <-held
	if r.err != nil {
		t.Fatalf("held read of bucket %d: %v", target, r.err)
	}
	var got [][2]float64
	for i := 0; i < r.fl.Len(); i++ {
		got = append(got, [2]float64{r.fl.Row(i)[0], r.fl.Row(i)[1]})
	}
	slices.SortFunc(got, cmpRow)
	if !slices.Equal(got, want) {
		t.Fatalf("held read of bucket %d decoded %d records, it held %d when looked up (or they differ)",
			target, len(got), len(want))
	}
	t.Logf("%d inserts on disk %d across %d checkpoints while the read was held", inserted, pl.Disk, (lsn-lsn0)/4)

	// Released: the pages it held become reusable again.
	grown, written := sum(s.w.nextPage), make([]int64, 4)
	for _, key := range randKeys(f.Domain(), 64, 52) {
		m, err := s.Insert(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		rewrittenPages(s, m, written)
	}
	if grown = sum(s.w.nextPage) - grown; grown >= sum(written) {
		t.Errorf("after the read: files grew by %d pages for %d rewritten, no page was reused", grown, sum(written))
	}
}

// TestScrubRacingWritesFindsNothing runs scrub passes back to back against a
// writer that checkpoints every 16 inserts: pages move and are reused under
// the passes, and every pass must still find nothing corrupt and repair
// nothing.
func TestScrubRacingWritesFindsNothing(t *testing.T) {
	dir, f, _ := buildReplicatedLayoutOf(t, 600, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(16)
	ctx := context.Background()

	type tally struct {
		passes            int
		corrupt, repaired int64
	}
	done := make(chan struct{})
	result := make(chan tally, 1)
	go func() {
		defer close(result)
		var tl tally
		for {
			select {
			case <-done:
				if tl.passes >= 2 {
					result <- tl
					return
				}
			default:
			}
			st, err := s.Scrub(ctx, 0)
			if err != nil {
				t.Error(err)
				return
			}
			tl.passes++
			tl.corrupt += st.Corrupt
			tl.repaired += st.Repaired
		}
	}()
	for _, key := range randKeys(f.Domain(), 800, 61) {
		if _, err := s.Insert(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	tl, ok := <-result
	if !ok {
		t.FailNow()
	}
	t.Logf("%d scrub passes", tl.passes)
	if tl.corrupt != 0 || tl.repaired != 0 {
		t.Fatalf("scrub racing writes: corrupt=%d repaired=%d, want 0/0", tl.corrupt, tl.repaired)
	}
}

// TestDiskFilesStayNearLive bounds space amplification: after 5 000 inserts
// with a checkpoint every 256, each disk file is at most two checkpoint
// intervals of rewrites larger than the pages its live buckets occupy — the
// fresh layout's and those splits added — because superseded pages are
// reused one interval after a checkpoint retires them. Appending every
// rewrite, the files grew by all twenty intervals.
func TestDiskFilesStayNearLive(t *testing.T) {
	const every, inserts, disks = 256, 5000, 4
	dir, f, _ := buildReplicatedLayout(t, disks, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(every)
	fresh, err := s.DiskSizes()
	if err != nil {
		t.Fatal(err)
	}
	interval, worst := make([]int64, disks), make([]int64, disks)
	for i, key := range randKeys(f.Domain(), inserts, 71) {
		m, err := s.Insert(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		rewrittenPages(s, m, interval)
		if (i+1)%every == 0 {
			for d, n := range interval {
				worst[d] = max(worst[d], n)
			}
			clear(interval)
		}
	}
	sizes, err := s.DiskSizes()
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int64, disks)
	for _, v := range s.Grid().Buckets() {
		pl, _ := s.Placement(v.ID)
		for _, d := range pl.OwnerDisks {
			live[d] += int64(pl.Pages)
		}
	}
	for d := range sizes {
		t.Logf("disk %d: fresh %d pages, live %d, file %d; one interval rewrites up to %d", d, fresh[d], live[d], sizes[d], worst[d])
		if sizes[d] > live[d]+2*worst[d] {
			t.Errorf("disk %d: file of %d pages, live buckets hold %d: more than two intervals (%d) of dead pages",
				d, sizes[d], live[d], 2*worst[d])
		}
	}
}

// TestReadOfMissedCopyIsRefused pins what a read of a copy whose rewrite
// failed does: it is refused with errStaleCopy — whatever the pages there
// hold — PickOwner steers around it while another owner has the bucket, and
// the next rewrite that reaches the disk clears it.
func TestReadOfMissedCopyIsRefused(t *testing.T) {
	dir, f, _ := buildReplicatedLayoutOf(t, 600, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := fault.NewRegistry(1)
	s.SetFaults(reg)
	ctx := context.Background()
	keys := randKeys(f.Domain(), 2, 81)
	id, _ := s.Grid().BucketAt(keys[0])
	pl, _ := s.Placement(id)
	bad, good := pl.OwnerDisks[0], pl.OwnerDisks[1]

	if err := reg.SetSpec(fault.StoreWriteDiskSite(bad) + ":err"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	reg.Clear()
	id, _ = s.Grid().BucketAt(keys[0])
	out := make([]geom.Flat, 1)
	if _, err := s.ReadFlatsFromTimed(ctx, bad, []int32{id}, out, nil); !errors.Is(err, errStaleCopy) {
		t.Fatalf("read of the copy that missed its write: %v, want errStaleCopy", err)
	}
	if d, ok := s.PickOwner(id, -1); !ok || d != good {
		t.Fatalf("PickOwner = %d, %v; want the intact copy on disk %d", d, ok, good)
	}
	if _, ok := s.PickOwner(id, good); ok {
		t.Fatal("PickOwner offered a copy after the intact one, the last owner")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint taken while a copy misses its write")
	}

	// A rewrite that reaches both disks clears it (the next insert into the
	// same bucket, or the bucket that split from it).
	var m Mutation
	if m, err = s.Insert(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	for _, id := range m.Stale {
		checkBucketCopies(t, s, id)
	}
}
