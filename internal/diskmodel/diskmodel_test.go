package diskmodel

import (
	"testing"
	"time"
)

func testParams(cacheBlocks int) Params {
	return Params{
		SeekRotate:      10 * time.Millisecond,
		TransferPerByte: time.Microsecond, // 1 byte/µs for easy arithmetic
		BlockBytes:      100,
		CacheBlocks:     cacheBlocks,
		CacheHit:        time.Millisecond,
	}
}

func TestMissCost(t *testing.T) {
	p := testParams(0)
	want := 10*time.Millisecond + 100*time.Microsecond
	if got := p.MissCost(); got != want {
		t.Errorf("MissCost = %v, want %v", got, want)
	}
}

func TestReadWithoutCache(t *testing.T) {
	p := testParams(0)
	d := New(p)
	for i := 0; i < 3; i++ {
		cost, hit := d.Read(7)
		if hit {
			t.Fatal("cache hit with caching disabled")
		}
		if cost != p.MissCost() {
			t.Fatalf("cost = %v", cost)
		}
	}
	st := d.Stats()
	if st.Reads != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyTime != 3*p.MissCost() {
		t.Errorf("BusyTime = %v", st.BusyTime)
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	d := New(testParams(2))
	d.Read(1) // miss
	d.Read(2) // miss
	if _, hit := d.Read(1); !hit {
		t.Fatal("expected hit on re-read")
	}
	d.Read(3) // miss; evicts 2 (1 was just touched)
	if _, hit := d.Read(2); hit {
		t.Fatal("expected 2 to be evicted")
	}
	if _, hit := d.Read(1); hit {
		t.Fatal("expected 1 to be evicted after 2's reload")
	}
	st := d.Stats()
	if st.Reads != 6 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUOrderingExact(t *testing.T) {
	d := New(testParams(3))
	// Fill 1,2,3; touch 1; insert 4 -> evicts 2.
	d.Read(1)
	d.Read(2)
	d.Read(3)
	d.Read(1)
	d.Read(4)
	if _, hit := d.Read(3); !hit {
		t.Error("3 should be cached")
	}
	if _, hit := d.Read(1); !hit {
		t.Error("1 should be cached")
	}
	if _, hit := d.Read(2); hit {
		t.Error("2 should have been evicted")
	}
}

func TestReadAll(t *testing.T) {
	d := New(testParams(10))
	total, hits := d.ReadAll([]int64{1, 2, 1, 3, 2})
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
	want := 3*testParams(10).MissCost() + 2*time.Millisecond
	if total != want {
		t.Errorf("total = %v, want %v", total, want)
	}
}

func TestDropCacheAndResetStats(t *testing.T) {
	d := New(testParams(4))
	d.Read(1)
	d.Read(1)
	d.DropCache()
	if _, hit := d.Read(1); hit {
		t.Error("hit after DropCache")
	}
	// DropCache empties the cache and does not reset the statistics.
	if st := d.Stats(); st.Reads != 3 || st.Hits != 1 {
		t.Errorf("stats after DropCache = %+v, want 3 reads, 1 hit", st)
	}
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate nonzero")
	}
	s := Stats{Reads: 4, Hits: 1}
	if s.HitRate() != 0.25 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestNewPanicsOnBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Params{BlockBytes: 0})
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.MissCost() <= p.CacheHit {
		t.Error("miss not costlier than hit")
	}
	if p.CacheBlocks <= 0 {
		t.Error("default cache disabled")
	}
}

func TestSequentialReads(t *testing.T) {
	p := testParams(0)
	p.SequentialReads = true
	d := New(p)
	transferOnly := 100 * time.Microsecond // 100 bytes at 1 byte/µs
	full := p.MissCost()

	if cost, _ := d.Read(10); cost != full {
		t.Errorf("first read cost %v, want full %v", cost, full)
	}
	if cost, _ := d.Read(11); cost != transferOnly {
		t.Errorf("sequential read cost %v, want transfer-only %v", cost, transferOnly)
	}
	if cost, _ := d.Read(13); cost != full {
		t.Errorf("skipping read cost %v, want full %v", cost, full)
	}
	if cost, _ := d.Read(12); cost != full {
		t.Errorf("backward read cost %v, want full %v", cost, full)
	}
	if got := d.Stats().SeqReads; got != 1 {
		t.Errorf("SeqReads = %d, want 1", got)
	}
}

func TestSequentialReadsDisabledByDefault(t *testing.T) {
	d := New(testParams(0))
	d.Read(10)
	if cost, _ := d.Read(11); cost != testParams(0).MissCost() {
		t.Errorf("sequential optimization active without opt-in: %v", cost)
	}
	if d.Stats().SeqReads != 0 {
		t.Error("SeqReads counted without opt-in")
	}
}

func TestCacheHitDoesNotMoveHead(t *testing.T) {
	p := testParams(4)
	p.SequentialReads = true
	d := New(p)
	d.Read(10) // miss, head -> 11
	d.Read(10) // cache hit, head must stay 11
	if cost, hit := d.Read(11); hit || cost != 100*time.Microsecond {
		t.Errorf("read after cache hit: cost %v hit %v, want sequential transfer-only", cost, hit)
	}
}
