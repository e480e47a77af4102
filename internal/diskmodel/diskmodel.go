// Package diskmodel simulates the per-node storage of the shared-nothing
// experiments (Section 3.5): a disk with a fixed random-access cost and
// transfer rate, fronted by an LRU block cache. Simulated time is
// deterministic, so the SP-2 tables are reproducible on any host; the
// default parameters are calibrated to mid-1990s SCSI disks (the SP-2's
// hardware class), but the experiments' conclusions depend only on ratios.
package diskmodel

import (
	"container/list"
	"fmt"
	"time"
)

// Params describes one disk.
type Params struct {
	// SeekRotate is the average positioning cost of a random block access.
	SeekRotate time.Duration
	// TransferPerByte is the sequential transfer cost per byte.
	TransferPerByte time.Duration
	// BlockBytes is the block (bucket/page) size.
	BlockBytes int
	// CacheBlocks is the LRU capacity in blocks; 0 disables caching.
	CacheBlocks int
	// CacheHit is the cost of serving a block from the cache.
	CacheHit time.Duration
	// SequentialReads, when true, models elevator scheduling: a read of
	// the block immediately following the previous uncached read skips
	// the positioning cost and pays transfer only. Worker batches arrive
	// in ascending block order, so layouts that place consecutively
	// accessed buckets at consecutive ids benefit.
	SequentialReads bool
}

// DefaultParams models a mid-1990s SCSI disk with an 8 KB page and a modest
// buffer cache: ~10 ms positioning, 4 MB/s transfer, 0.2 ms cached access.
func DefaultParams() Params {
	return Params{
		SeekRotate:      10 * time.Millisecond,
		TransferPerByte: time.Second / (4 << 20),
		BlockBytes:      8192,
		CacheBlocks:     512,
		CacheHit:        200 * time.Microsecond,
	}
}

// MissCost returns the simulated cost of one uncached block read.
func (p Params) MissCost() time.Duration {
	return p.SeekRotate + time.Duration(p.BlockBytes)*p.TransferPerByte
}

// Stats accumulates disk activity.
type Stats struct {
	Reads    int           // total block reads
	Hits     int           // reads served from cache
	SeqReads int           // uncached reads served without positioning
	BusyTime time.Duration // total simulated service time
}

// HitRate returns the fraction of reads served from cache.
func (s Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// Disk is a simulated disk with an LRU cache. Not safe for concurrent use;
// in the parallel engine each worker owns one disk.
type Disk struct {
	params Params
	stats  Stats
	lru    *list.List // front = most recent; values are int64 block ids
	index  map[int64]*list.Element
	head   int64 // block after the last uncached read (elevator position)
}

// New creates a disk. It panics on non-positive block size, which is always
// a configuration error.
func New(p Params) *Disk {
	if p.BlockBytes <= 0 {
		panic(fmt.Sprintf("diskmodel: BlockBytes = %d", p.BlockBytes))
	}
	d := &Disk{params: p, head: -1}
	if p.CacheBlocks > 0 {
		d.lru = list.New()
		d.index = make(map[int64]*list.Element, p.CacheBlocks)
	}
	return d
}

// Stats returns the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// DropCache empties the cache (cold start between experiments).
func (d *Disk) DropCache() {
	if d.lru == nil {
		return
	}
	d.lru.Init()
	for k := range d.index {
		delete(d.index, k)
	}
}

// Read simulates fetching one block and returns its simulated service time
// and whether it was a cache hit.
func (d *Disk) Read(block int64) (time.Duration, bool) {
	d.stats.Reads++
	if d.lru != nil {
		if el, ok := d.index[block]; ok {
			d.lru.MoveToFront(el)
			d.stats.Hits++
			d.stats.BusyTime += d.params.CacheHit
			return d.params.CacheHit, true
		}
	}
	cost := d.params.MissCost()
	if d.params.SequentialReads && block == d.head {
		cost = time.Duration(d.params.BlockBytes) * d.params.TransferPerByte
		d.stats.SeqReads++
	}
	d.head = block + 1
	d.stats.BusyTime += cost
	if d.lru != nil {
		d.index[block] = d.lru.PushFront(block)
		if d.lru.Len() > d.params.CacheBlocks {
			oldest := d.lru.Back()
			d.lru.Remove(oldest)
			delete(d.index, oldest.Value.(int64))
		}
	}
	return cost, false
}

// ReadAll simulates fetching a batch of blocks sequentially, returning the
// total service time and the number of cache hits.
func (d *Disk) ReadAll(blocks []int64) (time.Duration, int) {
	var total time.Duration
	hits := 0
	for _, b := range blocks {
		t, hit := d.Read(b)
		total += t
		if hit {
			hits++
		}
	}
	return total, hits
}
