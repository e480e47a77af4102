package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// newWritableServer lays out a uniform 2-D dataset at replication factor r
// and serves it writable.
func newWritableServer(t *testing.T, records, disks, r int, cfg Config) *Server {
	t.Helper()
	f, err := synth.Uniform2D(records, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	cfg.Writable = true
	s, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testKeys draws n in-domain keys distinct from the synthetic dataset (which
// only generates coordinates in [0,1) from its own seed).
func testKeys(dom geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		p := make(geom.Point, len(dom))
		for d, iv := range dom {
			p[d] = iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
		}
		out[i] = p
	}
	return out
}

// TestServerOnlineWrites drives INSERT and DELETE over the network: every
// acknowledged insert is immediately visible to a point query (read-after-
// write through the cache invalidation path), deletes remove exactly the
// written records, and the STATS snapshot carries the write counters and
// the disk files' size as it stands, not as it was at start-up.
func TestServerOnlineWrites(t *testing.T) {
	s := newWritableServer(t, 800, 4, 2, Config{})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 8})

	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dom := make(geom.Rect, len(snap.Domain))
	for d, iv := range snap.Domain {
		dom[d] = geom.Interval{Lo: iv[0], Hi: iv[1]}
	}
	start := snap

	keys := testKeys(dom, 300, 21)
	splits := 0
	for _, key := range keys {
		res, err := cl.InsertCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("insert %v: %v", key, err)
		}
		if !res.Applied {
			t.Fatalf("insert %v not applied", key)
		}
		splits += res.Splits
		// Read-after-write: the ack means the record is queryable NOW.
		pts, _, err := cl.PointCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("point after insert %v: %v", key, err)
		}
		if len(pts) == 0 {
			t.Fatalf("acknowledged insert %v invisible to a point query", key)
		}
	}

	snap, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Writes == nil {
		t.Fatal("writable server reports no write counters")
	}
	if snap.Writes.Inserts != int64(len(keys)) {
		t.Errorf("inserts counter %d, want %d", snap.Writes.Inserts, len(keys))
	}
	if snap.Writes.JournalAppends != int64(2*len(keys)) {
		t.Errorf("journal appends %d, want %d (r=2)", snap.Writes.JournalAppends, 2*len(keys))
	}
	if splits > 0 && snap.Writes.BucketSplits != int64(splits) {
		t.Errorf("split counter %d, acks reported %d", snap.Writes.BucketSplits, splits)
	}
	if snap.Cache != nil && snap.Cache.Invalidations == 0 {
		t.Error("writes invalidated nothing in the cache")
	}
	// Shadow rewrites grew the disk files, and no checkpoint (one per 1024
	// operations) has moved the placements on: more pages on disk per
	// bucket page placed.
	sizes, err := s.st.DiskSizes()
	if err != nil {
		t.Fatal(err)
	}
	var pages int64
	for _, n := range sizes {
		pages += n
	}
	if want := pages * int64(s.st.Manifest().PageBytes); snap.DiskBytes != want || snap.DiskBytes <= start.DiskBytes {
		t.Errorf("disk_bytes %d after %d inserts (%d at start), the files hold %d", snap.DiskBytes, len(keys), start.DiskBytes, want)
	}
	if snap.WriteAmp <= start.WriteAmp {
		t.Errorf("write_amplification %g after %d inserts, %g at start", snap.WriteAmp, len(keys), start.WriteAmp)
	}

	for _, key := range keys {
		res, err := cl.DeleteCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("delete %v: %v", key, err)
		}
		if !res.Applied {
			t.Fatalf("delete %v found nothing", key)
		}
		pts, _, err := cl.PointCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("point after delete %v: %v", key, err)
		}
		if len(pts) != 0 {
			t.Fatalf("deleted key %v still answered by a point query", key)
		}
	}
	// Deleting an absent key acks with Applied=false.
	res, err := cl.DeleteCtx(context.Background(), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied {
		t.Error("second delete of the same key applied")
	}
}

// TestReadOnlyServerRejectsWrites pins the compatibility contract: a server
// opened without Writable answers INSERT with a protocol error, not a hang
// or a crash, and the connection survives for further queries.
func TestReadOnlyServerRejectsWrites(t *testing.T) {
	s, f := newTestServer(t, 300, 4, Config{})
	cl := newTestClient(t, s, ClientConfig{})
	_, err := cl.InsertCtx(context.Background(), geom.Point{0.5, 0.5})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected a server error, got %v", err)
	}
	// The connection is still serviceable.
	if _, _, err := cl.RangeCtx(context.Background(), f.Domain()); err != nil {
		t.Fatalf("query after rejected write: %v", err)
	}
}

// TestReadOnlyServerServesAcknowledgedWrites is the regression test for a
// server that opened a layout without replaying its journals: a store
// acknowledges 50 inserts into a 1 200-record layout and dies without a
// checkpoint, so the inserts live in the journals only, and a server opened
// over the directory without Writable counted 1 200 records. Every open
// replays now, so it counts 1 250 — and still refuses writes of its own.
func TestReadOnlyServerServesAcknowledgedWrites(t *testing.T) {
	ctx := context.Background()
	f, dir := newTestLayout(t, 1200, 4, 1)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCheckpointEvery(0)
	for _, key := range testKeys(f.Domain(), 50, 21) {
		if _, err := st.Insert(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	st.CloseNoCheckpoint()

	s, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cl := newTestClient(t, s, ClientConfig{})
	if n, _, err := cl.RangeCountCtx(ctx, f.Domain()); err != nil || n != 1250 {
		t.Fatalf("count over the domain: %d, %v; want 1250 records", n, err)
	}
	_, err = cl.InsertCtx(ctx, geom.Point{0.5, 0.5})
	if se := (*ServerError)(nil); !errors.As(err, &se) || se.Msg != "server is read-only (restart with writes enabled)" {
		t.Fatalf("insert into a server opened without Writable: %v, want the read-only refusal", err)
	}
}

// TestConcurrentWritesAndReads hammers a writable server with parallel
// writers and readers; under -race this doubles as the locking proof for the
// grid translation / mutation split.
func TestConcurrentWritesAndReads(t *testing.T) {
	s := newWritableServer(t, 600, 4, 2, Config{})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 16})
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dom := make(geom.Rect, len(snap.Domain))
	for d, iv := range snap.Domain {
		dom[d] = geom.Interval{Lo: iv[0], Hi: iv[1]}
	}

	const writers, readers, per = 4, 4, 120
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, key := range testKeys(dom, per, int64(100+w)) {
				if _, err := cl.InsertCtx(context.Background(), key); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := geom.Rect{
					{Lo: 0.1 * float64(r), Hi: 0.1*float64(r) + 0.2},
					{Lo: 0.3, Hi: 0.6},
				}
				if _, _, err := cl.RangeCtx(context.Background(), q); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	snap, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Writes == nil || snap.Writes.Inserts != writers*per {
		t.Fatalf("write counters after concurrent load: %+v", snap.Writes)
	}
}

// TestRangeCountAcrossSplits is the regression test for the first wrong
// answer the repo benchmark found: a query translated its bucket ids under
// the grid read-lock and fetched them after releasing it, so a split landing
// in between moved rows to a bucket the query never asked for and the count
// came back short, undegraded — and a query translating just after a split
// still found the bucket's pre-split records cached and counted the moved
// rows twice. Four clients insert until the grid has split 300 times while
// six count the whole domain and three interior boxes, whose counts add the
// directory's totals for the buckets inside them to the rows read from the
// buckets on their border (DESIGN S53): no count may be below the records in
// its box before the writes plus the inserts into it acknowledged before it
// was sent, or above those plus the inserts into it sent by when it came
// back.
func TestRangeCountAcrossSplits(t *testing.T) {
	const base, writers, readers, wantSplits, maxInserts = 2000, 4, 6, 300, 20000
	s := newWritableServer(t, base, 4, 2, Config{})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 16})
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dom := make(geom.Rect, len(snap.Domain))
	for d, iv := range snap.Domain {
		dom[d] = geom.Interval{Lo: iv[0], Hi: iv[1]}
	}
	// The boxes, as fractions of the domain along each dimension.
	boxes := []geom.Rect{dom}
	for _, fr := range [][4]float64{{0.1, 0.6, 0.2, 0.7}, {0.45, 0.95, 0.05, 0.5}, {0.3, 0.7, 0.3, 0.7}} {
		boxes = append(boxes, geom.Rect{
			{Lo: dom[0].Lo + fr[0]*dom[0].Length(), Hi: dom[0].Lo + fr[1]*dom[0].Length()},
			{Lo: dom[1].Lo + fr[2]*dom[1].Length(), Hi: dom[1].Lo + fr[3]*dom[1].Length()},
		})
	}
	before := make([]int64, len(boxes)) // records in each box before the writes
	for b, q := range boxes {
		before[b] = int64(s.st.Grid().RangeCount(q))
		if _, inside, _ := s.st.Grid().CountSplitAppend(q, nil); b > 0 && inside == 0 {
			t.Fatalf("box %v has no bucket inside it: its count reads every bucket", q)
		}
	}
	if before[0] != base {
		t.Fatalf("%d records in the domain, want %d", before[0], base)
	}

	// Per box: inserts into it sent and acknowledged so far.
	sent := make([]atomic.Int64, len(boxes))
	acked := make([]atomic.Int64, len(boxes))
	var ackedAll, splits, reads, wrong atomic.Int64
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for _, key := range testKeys(dom, maxInserts/writers, int64(200+w)) {
				if splits.Load() >= wantSplits {
					return
				}
				for b, q := range boxes {
					if q.ContainsPoint(key) {
						sent[b].Add(1)
					}
				}
				res, err := cl.InsertCtx(context.Background(), key)
				if err != nil {
					t.Error(err)
					return
				}
				for b, q := range boxes {
					if q.ContainsPoint(key) {
						acked[b].Add(1)
					}
				}
				ackedAll.Add(1)
				splits.Add(int64(res.Splits))
			}
		}()
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				b := i % len(boxes)
				floor := before[b] + acked[b].Load()
				n, _, err := cl.RangeCountCtx(context.Background(), boxes[b])
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				if ceil := before[b] + sent[b].Load(); int64(n) < floor || int64(n) > ceil {
					wrong.Add(1)
					t.Errorf("count of %v: %d, want between %d (acknowledged before it) and %d (sent by its end)", boxes[b], n, floor, ceil)
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	t.Logf("%d counts across %d splits (%d inserts): %d wrong", reads.Load(), splits.Load(), ackedAll.Load(), wrong.Load())
	if splits.Load() < wantSplits {
		t.Fatalf("only %d splits in %d inserts, want %d", splits.Load(), ackedAll.Load(), wantSplits)
	}
	for b, q := range boxes {
		if n, _, err := cl.RangeCountCtx(context.Background(), q); err != nil || int64(n) != before[b]+acked[b].Load() {
			t.Errorf("final count of %v: %d (err %v), want %d", q, n, err, before[b]+acked[b].Load())
		}
		if n := s.st.Grid().RangeCount(q); int64(n) != before[b]+acked[b].Load() {
			t.Errorf("the grid holds %d records in %v, want %d", n, q, before[b]+acked[b].Load())
		}
	}
}

// TestReadAfterAckSkipsLoadBegunBeforeWrite pins the cache's stale-load
// fence (DESIGN S39, S51): a count that arrives after an insert was
// acknowledged must not be answered from a bucket load another query began
// before the insert. The first reader's disk batch resolves its placements
// and then stalls in an injected pread delay, which fires after the
// placements are looked up (a stall before that would let the early read
// see the new pages); the insert lands and is acknowledged meanwhile (shadow
// paging leaves the old pages intact). The second reader reads the bucket
// itself, and the early load, completing after the write, must not be
// cached, or the last count would see the bucket as it was before it.
func TestReadAfterAckSkipsLoadBegunBeforeWrite(t *testing.T) {
	const base = 600
	reg := fault.NewRegistry(1)
	s := newWritableServer(t, base, 4, 1, Config{Faults: reg})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 4})
	ctx := context.Background()
	dom := s.st.Grid().Domain()
	key := testKeys(dom, 1, 77)[0]
	id, _ := s.st.Grid().BucketAt(key)
	pl, _ := s.st.Placement(id)
	if err := reg.SetSpec(fault.StoreReadDiskSite(pl.Disk) + ":delay=300ms"); err != nil {
		t.Fatal(err)
	}

	early := make(chan error, 1)
	go func() {
		n, _, err := cl.RangeCountCtx(ctx, dom)
		if err == nil && n != base && n != base+1 {
			err = fmt.Errorf("the count begun before the insert read %d, want %d or %d", n, base, base+1)
		}
		early <- err
	}()
	for reg.Total() == 0 { // the batch holding the bucket has its placements and sleeps
		time.Sleep(time.Millisecond)
	}
	reg.Clear()
	if res, err := cl.InsertCtx(ctx, key); err != nil || !res.Applied {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	if n, _, err := cl.RangeCountCtx(ctx, dom); err != nil || n != base+1 {
		t.Errorf("count after the acknowledged insert: %d (%v), want %d", n, err, base+1)
	}
	if err := <-early; err != nil {
		t.Error(err)
	}
	if n, _, err := cl.RangeCountCtx(ctx, dom); err != nil || n != base+1 {
		t.Errorf("count once both loads are done: %d (%v), want %d", n, err, base+1)
	}
}

// TestMissedPageWriteIsNeverServed is the regression test for a copy whose
// page write failed being served anyway: with disk 0's page writes failing,
// 200 acknowledged inserts left their disk-0 copies unwritten (past the end
// of the file, so a read of one hit EOF — or, once pages are reused, another
// bucket's page or an older version of the same one), and the reads that
// picked them failed with "reading buckets …: EOF" although at r=2 an intact
// copy sat on another disk: 62 of these 200 keys, at r=1 and at r=2. Every
// key must now be found at r=2, and at r=1, where the missed copy is the only
// one, the query must come back degraded, not as an error.
func TestMissedPageWriteIsNeverServed(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			reg := fault.NewRegistry(1)
			s := newWritableServer(t, 800, 4, r, Config{Faults: reg, Degraded: true})
			cl := newTestClient(t, s, ClientConfig{})
			ctx := context.Background()
			if err := reg.SetSpec(fault.StoreWriteDiskSite(0) + ":err"); err != nil {
				t.Fatal(err)
			}
			keys := testKeys(s.st.Grid().Domain(), 200, 31)
			for _, key := range keys {
				if _, err := cl.InsertCtx(ctx, key); err != nil {
					t.Fatalf("insert %v: %v", key, err)
				}
			}
			reg.Clear()
			failed, degraded := 0, 0
			for _, key := range keys {
				pts, info, err := cl.PointCtx(ctx, key)
				switch {
				case err != nil:
					failed++
					t.Errorf("point %v: %v", key, err)
				case info.Degraded:
					degraded++
				case len(pts) != 1:
					t.Errorf("point %v: %d records, want 1", key, len(pts))
				}
			}
			t.Logf("r=%d: %d of %d keys failed, %d degraded", r, failed, len(keys), degraded)
			if r == 2 && degraded != 0 {
				t.Errorf("%d degraded answers with an intact copy on another disk", degraded)
			}
			if r == 1 && degraded == 0 {
				t.Error("no answer degraded although disk 0's copies missed their writes")
			}
		})
	}
}

// TestFetchOfMergedAwayBucketTranslatesAgain: a point query translates to a
// bucket and its disk read stalls (an injected delay, then an injected
// error) while deletes merge that bucket away, which retires its placement
// there and then. The read's retry then finds no placement at all. The
// grid moved since the query translated, so that failure, like an answer,
// belongs to a stale translation: the query must translate again and find
// its record in the surviving bucket, not report the error.
func TestFetchOfMergedAwayBucketTranslatesAgain(t *testing.T) {
	reg := fault.NewRegistry(1)
	s := newWritableServer(t, 300, 4, 1, Config{Faults: reg, CacheBytes: -1})
	cl := newTestClient(t, s, ClientConfig{})
	ctx := context.Background()

	// On a copy of the grid, find a bucket, a record of it to query, and the
	// deletes — the bucket's other records first, then the rest in bucket
	// order — after which a merge retires that bucket.
	var buf bytes.Buffer
	if _, err := s.st.Grid().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	grid := buf.Bytes()
	keysOf := func(f *gridfile.File, id int32) (keys []geom.Point) {
		flat := f.AppendBucketKeys(nil, id)
		for i := 0; i < len(flat); i += 2 {
			keys = append(keys, geom.Point(flat[i:i+2:i+2]))
		}
		return keys
	}
	var victim int32
	var query geom.Point
	var deletes []geom.Point
	views := s.st.Grid().Buckets()
	for i := len(views) - 1; i >= 0 && deletes == nil; i-- {
		f, err := gridfile.Read(bytes.NewReader(grid))
		if err != nil {
			t.Fatal(err)
		}
		id := views[i].ID
		own := keysOf(f, id)
		order := slices.Clone(own[1:])
		for _, v := range views {
			if v.ID != id {
				order = append(order, keysOf(f, v.ID)...)
			}
		}
		for j, key := range order {
			if res := f.DeleteTracked(key); res.Merged && res.Dead == id {
				victim, query, deletes = id, own[0], order[:j+1]
				break
			}
		}
	}
	if deletes == nil {
		t.Fatal("no bucket of the layout is ever merged away")
	}

	pl, _ := s.st.Placement(victim)
	if err := reg.SetSpec(fault.StoreReadDiskSite(pl.Disk) + ":delay=500ms;" + fault.StoreReadDiskSite(pl.Disk) + ":err"); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		n   int
		err error
	}
	done := make(chan answer, 1)
	go func() {
		pts, _, err := cl.PointCtx(ctx, query)
		done <- answer{len(pts), err}
	}()
	for reg.Total() == 0 { // the read has looked the victim's placement up and stalls
		time.Sleep(time.Millisecond)
	}
	merged := false
	for _, key := range deletes {
		m, err := s.st.Delete(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		merged = merged || (len(m.Stale) == 2 && m.Stale[1] == victim)
	}
	if !merged {
		t.Fatalf("the deletes did not retire bucket %d", victim)
	}
	if _, ok := s.st.Placement(victim); ok {
		t.Fatalf("the merge kept the placement of retired bucket %d", victim)
	}
	reg.Clear()
	if a := <-done; a.err != nil || a.n != 1 {
		t.Fatalf("point query across the merge: %d records, %v; want 1, nil", a.n, a.err)
	}
}

// tornProxy forwards client bytes to the backend but cuts both connections
// the moment the backend produces its reply, so the client observes a torn
// connection on every request: sent, possibly applied, never acknowledged.
func tornProxy(t *testing.T, backend string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				b, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				go io.Copy(b, c) // requests flow through
				// Swallow the first reply byte, then hang up: the request
				// reached (and was executed by) the server, the ack did not
				// reach the client.
				var one [1]byte
				io.ReadFull(b, one[:])
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestTornConnectionNeverDoubleAppliesWrite is the retry-safety regression
// test for the idempotent() allowlist: a write whose connection dies before
// the ack arrives must NOT be re-sent by the client. With the old denylist
// (everything but FAULT retried) the insert below would be applied up to
// Retries+1 times; the allowlist caps it at exactly one server-side apply.
func TestTornConnectionNeverDoubleAppliesWrite(t *testing.T) {
	s := newWritableServer(t, 400, 4, 2, Config{})
	proxy := tornProxy(t, s.Addr().String())
	cl, err := NewClient(ClientConfig{
		Addr:           proxy.Addr().String(),
		Retries:        3,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	key := geom.Point{0.123456, 0.654321}
	if _, err := cl.InsertCtx(context.Background(), key); err == nil {
		t.Fatal("insert through the torn proxy reported success")
	}

	// Give the server a beat to finish executing the request it received.
	deadline := time.Now().Add(2 * time.Second)
	var applied int64
	for {
		applied = s.st.WriteCounters().Inserts
		if applied > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if applied != 1 {
		t.Fatalf("torn-connection insert applied %d times, want exactly 1", applied)
	}
	// Exactly one copy of the record exists — ask the server directly.
	direct := newTestClient(t, s, ClientConfig{})
	pts, _, err := direct.PointCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("%d copies of the record stored, want 1", len(pts))
	}

	// Sanity: a read-only query through the same torn proxy IS retried —
	// every attempt fails here, but each one opens a fresh connection.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := cl.PointCtx(ctx, key); err == nil {
		t.Fatal("query through the torn proxy reported success")
	}
}
