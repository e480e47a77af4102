// Package store persists a declustered grid file the way the paper's
// simulator does: "reads in the dataset and declusters it to separate files
// corresponding to every disk being simulated". A layout directory holds
//
//	layout.grd      the checkpoint (checkpoint.go): the grid file's scales,
//	                directory and records — the coordinator state — then the
//	                page size, the replica count, the checkpoint LSN and where
//	                each bucket's copies start; it appears by rename once all
//	                it names is durable, and a directory without one is not a
//	                layout
//	disk000.dat …   one page file per disk; each bucket occupies one or
//	                more consecutive pages on its assigned disk
//	journal000.wal … one write-ahead journal per disk, from the first Open
//	                on (write.go); a fresh layout has none
//
// There is one way onto disk: a fresh layout (writeLayout) is checkpoint zero
// of the write path, and one owner of the grid file: the Store decodes it
// with the placements, and callers translate queries against Store.Grid().
// The placement table holds exactly the grid's live buckets whenever no write
// is under way: a split places the buckets it creates, and a buddy merge drops
// the placement of the bucket it retires, both in the same apply step. A query
// that translated before a merge and finds its bucket gone translates again
// (Store.GridGen).
//
// There is one way off disk, too: Open. Every open is the same — disk files
// read-write, strays removed, free pages derived, journals replayed — so a
// layout's state is its last checkpoint plus every write acknowledged since,
// whoever opens it. A layout has one live Store at a time: Open and the
// layout writer hold an exclusive lock on the directory until Close, and
// refuse a directory whose lock another Store holds (lockDir).
//
// A layout's pages are one fixed size, no larger than a full bucket needs
// (pageSize); a bucket larger than one page (a full 4-D bucket under a 4 KiB
// cap, or an overfull duplicate-key one) spans consecutive pages. The reader
// serves individual buckets with real file I/O, so experiments can be run
// against actual per-disk files rather than in-memory structures.
//
// A Store is safe for concurrent readers: ReadFlatsFromTimed addresses pages
// with pread-style ReadAt calls on per-disk file handles, and the only shared
// state it touches is the reader-epoch count (pinPages), by atomic adds; so
// any number of goroutines may fetch buckets simultaneously
// — the property the network query service (internal/server) relies on for
// its per-disk I/O goroutines.
//
// Declustering spreads a query's buckets across disks; within one disk the
// writer clusters them: every disk file is laid out along the Hilbert curve
// of the bucket regions (LayoutOrder), so the buckets a range query needs
// from one disk sit close together, and the batch reads plan spans — single
// ReadAt calls that cover several wanted buckets and read through short gaps
// of unwanted pages (nextSpan) — instead of one read per bucket.
package store

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/sfc"
)

// The page header: bucket id (u32), record count (u32), a CRC-32C of the
// page (u32, computed with the crc field itself zeroed) and a reserved word
// that keeps the record array 8-byte aligned. The checksum covers the whole
// page — header, records and padding — so torn writes and bit rot anywhere in
// the page are detectable, not just in the fields decode happens to validate.
// pageFormat is the number the checkpoint file records for this layout.
const (
	pageHeaderBytes = 16
	pageFormat      = 2
)

// pageChecksum computes the CRC-32C of a page with the crc field (bytes
// 8..12) treated as zero.
func pageChecksum(page []byte) uint32 {
	c := crc32.Update(0, crcTable, page[:8])
	c = crc32.Update(c, crcTable, zeroWord[:])
	return crc32.Update(c, crcTable, page[12:])
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroWord stands in for the crc field; a local array would escape through
// crc32.Update, an allocation per page.
var zeroWord [4]byte

// errChecksum reports a page whose stored CRC-32C does not match its
// contents; checkPage wraps it.
var errChecksum = errors.New("page checksum mismatch")

// errStaleCopy reports a read of a bucket copy whose last rewrite failed to
// reach its disk: its pages may hold another bucket's records or an older
// version of this one. Like any failed read it condemns one copy, not the
// bucket — another owner may hold it whole, and replay rewrites it.
var errStaleCopy = errors.New("copy missed its last write")

// Placement locates one bucket in the layout. Every owner disk stores a copy
// of the bucket: OwnerDisks[i] holds a copy whose pages start at
// OwnerPages[i]. A checkpoint stores only those two lists; ID, Recs and Pages
// follow from the grid file, and Disk and Page mirror owner 0 (the primary
// copy) for callers outside this module — code in it reads OwnerDisks[0] and
// OwnerPages[0].
type Placement struct {
	ID         int32
	Disk       int
	Page       int64 // first page index within the disk file
	Pages      int   // consecutive pages occupied
	Recs       int
	OwnerDisks []int
	OwnerPages []int64

	// missed lists the owner disks whose copy a page-write failure kept from
	// the bucket's last rewrite (write.go); never part of a checkpoint,
	// because checkpoints are withheld while any copy has missed a write.
	missed []int
}

// Manifest is a layout's geometry, as its checkpoint file records it. It
// never changes while the layout is open; where each bucket lives is the
// store's placement table (Store.Placement).
type Manifest struct {
	Disks     int
	Dims      int
	PageBytes int
	Replicas  int // copies per bucket
}

// recordsPerPage returns how many dims-dimensional keys fit in a page.
func recordsPerPage(pageBytes, dims int) int {
	return (pageBytes - pageHeaderBytes) / (8 * dims)
}

// pagesFor returns how many pages a bucket of nrec records occupies: full
// pages of recordsPerPage, and one page even when it is empty.
func pagesFor(nrec, perPage int) int {
	return max(1, (nrec+perPage-1)/perPage)
}

// PagesFor returns how many pages this layout stores a bucket of nrec
// records in — what a Placement of that bucket carries as Pages — for a
// caller that holds the decoded bucket and not its Placement.
func (s *Store) PagesFor(nrec int) int {
	return pagesFor(nrec, recordsPerPage(s.manifest.PageBytes, s.manifest.Dims))
}

// pageAlign is the granularity of a layout's page size: a disk sector.
const pageAlign = 512

// pageSize returns the page size a layout of f is written with: pageBytes,
// or the smallest multiple of pageAlign that holds a full bucket — the header
// and BucketCapacity keys — when that is smaller. A bucket never grows past
// its capacity without splitting, so a larger page would only carry padding
// that every read copies and checksums. A bucket that a full page cannot
// hold (4-D keys in 4 KiB) still spans several pages.
func pageSize(f *gridfile.File, pageBytes int) int {
	full := pageHeaderBytes + f.BucketCapacity()*8*f.Dims()
	return min(pageBytes, (full+pageAlign-1)/pageAlign*pageAlign)
}

// Write lays out the grid file's buckets over per-disk page files under
// dir, following the allocation, in pages of at most pageBytes (pageSize).
// It returns the placements it wrote, in f.Buckets() order.
func Write(dir string, f *gridfile.File, alloc core.Allocation, pageBytes int) ([]*Placement, error) {
	if err := alloc.Validate(f.NumBuckets()); err != nil {
		return nil, err
	}
	owners := make([][]int, len(alloc.Assign))
	for i := range alloc.Assign {
		owners[i] = alloc.Assign[i : i+1 : i+1]
	}
	return writeLayout(dir, f, owners, alloc.Disks, 1, pageSize(f, pageBytes), nil)
}

// WriteReplicated lays out the grid file with each bucket written to every
// disk in its owner list, following a replica map (see internal/replica), in
// pages of at most pageBytes (pageSize). It returns the placements it wrote,
// in f.Buckets() order.
func WriteReplicated(dir string, f *gridfile.File, rm *replica.Map, pageBytes int) ([]*Placement, error) {
	if err := rm.Validate(f.NumBuckets()); err != nil {
		return nil, err
	}
	return writeLayout(dir, f, rm.Owners, rm.Disks, rm.Replicas, pageSize(f, pageBytes), nil)
}

// layoutCurveBits is the per-axis resolution of the curve LayoutOrder ranks
// bucket centres on. 16 bits tell 65536 positions per axis apart — finer
// than any bucket region — and four dimensions of it fill the 64-bit key;
// beyond four dimensions the resolution shrinks to what fits.
const layoutCurveBits = 16

// LayoutOrder returns the order in which the layout writer appends the grid
// file's buckets to their disk files, as indices into f.Buckets(): ascending
// Hilbert key of the bucket region's centre, ties by id. Every disk receives
// its buckets — primary and replica copies alike — in this one order, so
// each disk file is a single Hilbert-ordered run and the buckets a range
// query needs from a disk are near neighbours in it, whatever scheme dealt
// them out. Placements are explicit in the checkpoint, so the order is a
// property of freshly written layouts only: readers never assume it, and
// buckets the write path rewrites or splits off land in a reused extent or
// at the end of their files, outside the order.
func LayoutOrder(f *gridfile.File) []int {
	bits := min(layoutCurveBits, 64/f.Dims())
	g := core.Grid{Domain: f.Domain(), Buckets: f.Buckets()}
	return core.CentroidOrder(g, sfc.NewHilbert(f.Dims(), bits))
}

// encodePage fills page with one page of bucket id: the header, the given
// flat keys, zero padding and the checksum over all of it.
func encodePage(page []byte, id int32, keys []float64, dims int) {
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], uint32(id))
	binary.LittleEndian.PutUint32(page[4:], uint32(len(keys)/dims))
	off := pageHeaderBytes
	for _, k := range keys {
		binary.LittleEndian.PutUint64(page[off:], floatBits(k))
		off += 8
	}
	binary.LittleEndian.PutUint32(page[8:], pageChecksum(page))
}

// writeLayout is the layout writer: owners[i] lists the disks that receive a
// copy of bucket f.Buckets()[i], the primary first. A fresh layout is
// checkpoint zero of an empty one, put on disk by the write path itself: empty
// disk files, a placement stub per bucket, each bucket's pages appended by
// rewriteBucket in LayoutOrder, and the whole committed by checkpointLocked —
// data fsynced, then layout.grd by rename. Until that rename the directory is
// not a layout: whatever an earlier life left in it goes first, its checkpoint
// before anything else and the journals with it, so that neither a kill
// part-way nor the next Open pairs the new pages with the old life's
// placements or operations. The writer holds the directory's lock (lockDir)
// throughout, so it never rewrites a layout a live Store serves. Its pages are
// exactly pageBytes long; Write and WriteReplicated size them (pageSize).
// crash is the write path's kill hook, for the tests.
func writeLayout(dir string, f *gridfile.File, owners [][]int, disks, replicas, pageBytes int, crash func() bool) ([]*Placement, error) {
	if pageBytes <= pageHeaderBytes+8*f.Dims() {
		return nil, fmt.Errorf("store: page size %d too small for %d-D records", pageBytes, f.Dims())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	defer lock.Close()
	if err := os.Remove(filepath.Join(dir, "layout.grd")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := removeStrays(dir, true); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}

	s := &Store{
		manifest: Manifest{Disks: disks, Dims: f.Dims(), PageBytes: pageBytes, Replicas: replicas},
		dir:      dir,
		grid:     f,
	}
	s.w = newWriter(make([][]bool, disks), 0)
	s.w.crash = crash
	defer func() { closeAll(s.files) }()
	for d := 0; d < disks; d++ {
		fh, err := os.Create(filepath.Join(dir, DiskFileName(d)))
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, fh)
	}

	// The stubs share one allocation: each bucket's rewrite publishes the
	// one placement it keeps.
	views := f.Buckets()
	s.places.Store(new([]atomic.Pointer[Placement]))
	stubs := make([]Placement, len(views))
	for _, vi := range LayoutOrder(f) {
		id := views[vi].ID
		stubs[vi] = placementStub(id, owners[vi])
		s.setPlacement(id, &stubs[vi])
		if err := s.rewriteBucket(context.Background(), id); err != nil {
			return nil, err
		}
	}
	if err := s.checkpointLocked(true); err != nil {
		return nil, err
	}
	return s.livePlacements()
}

// Store reads buckets from a layout directory with real file I/O.
type Store struct {
	manifest Manifest
	dir      string
	files    []*os.File
	lock     *os.File // the directory's lock (lockDir), held until Close

	// grid is the layout's grid file — the coordinator's scales, directory
	// and records — decoded from the checkpoint file by Open, and mutated
	// under w.gridMu.
	grid *gridfile.File

	// places is the placement table, the store's one record of where buckets
	// live: slot id holds bucket id's placement, or nil. Bucket ids index the
	// grid file's bucket table, so the table is dense. A reader loads the
	// table and a slot with no lock. Placements are copy-on-write: a writer
	// holding w.mu stores a fresh one and never changes one it has published,
	// so whatever a reader loaded stays whole. The table grows only by
	// replacement, under w.mu, after every slot has been copied, so a writer
	// always stores into the current table.
	// Old-or-new: a reader that loaded the table before a growth may read a
	// slot as it stood at that growth; any placement published after the
	// growth was published after the reader began, so its query overlaps that
	// write. A reader that starts after a write has returned loads the
	// current table. The pages an old placement names stay intact while the
	// reader is pinned (pinPages), which is why ReadFlatsFromTimed pins
	// before it loads the table.
	places atomic.Pointer[[]atomic.Pointer[Placement]]

	// w holds the mutable-store state (grid lock, journals, allocation
	// cursors).
	w *writer

	// now is the clock timed reads use; a test hook (SetClock) can replace
	// it.
	now func() time.Time

	// faults, when non-nil, is consulted before every positioned read at
	// the fault.SiteStoreRead and per-disk sites. diskSites precomputes the
	// per-disk names so the hot path never formats strings.
	faults    *fault.Registry
	diskSites []string
}

// Open loads a layout directory written by Write or WriteReplicated for
// serving and mutation. It takes the directory's lock (lockDir), reads the
// checkpoint file, layout.grd, opens the disk files that file places buckets
// in read-write — the grid file it holds becomes the mutable coordinator state
// — clears out what a kill inside a checkpoint may have stranded, replays any
// journaled operations that survived a crash, and checkpoints the replayed
// state. It refuses a directory another Store holds open, one that holds a
// manifest.json instead (the layout generation before the checkpoint file), a
// checkpoint of another page format, and one whose placements could not all be
// read from the disk files as they stand.
func Open(dir string) (*Store, error) {
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "layout.grd"))
	if errors.Is(err, os.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
			err = errVintage(dir + " holds a manifest.json layout")
		}
	}
	if err != nil {
		lock.Close()
		return nil, err
	}
	s, err := openCheckpoint(dir, data)
	if err != nil {
		lock.Close()
		return nil, err
	}
	s.lock = lock
	if err := removeStrays(dir, false); err != nil {
		s.CloseNoCheckpoint()
		return nil, err
	}
	for d := 0; d < s.manifest.Disks; d++ {
		jh, err := os.OpenFile(filepath.Join(dir, JournalFileName(d)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.CloseNoCheckpoint()
			return nil, err
		}
		s.w.journals = append(s.w.journals, jh)
	}
	if err := s.replay(); err != nil {
		s.CloseNoCheckpoint()
		return nil, fmt.Errorf("store: journal replay: %w", err)
	}
	return s, nil
}

// lockDir takes a layout directory's lock: an exclusive, non-blocking flock on
// the directory itself, which adds no file and which the kernel drops with the
// handle, so a killed process leaves no stale lock. A second live Store would
// replay the first one's journals and rewrite pages it still serves.
func lockDir(dir string) (*os.File, error) {
	dh, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(dh.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		dh.Close()
		return nil, fmt.Errorf("store: %s is held open by another store: %w", dir, err)
	}
	return dh, nil
}

// OpenWritable is Open under its name from before every open was writable,
// kept for the benchmark harness (bench/), whose sources change only with the
// benchmark.
func OpenWritable(dir string) (*Store, error) { return Open(dir) }

// errVintage builds the refusal for a layout generation this reader does not
// serve; what names what gave it away.
func errVintage(what string) error {
	return fmt.Errorf("store: %s: only checkpoints of page format %d are readable; regenerate the layout with `gridtool layout`",
		what, pageFormat)
}

// Grid returns the layout's grid file. It mutates under concurrent queries:
// callers translating against it must hold the grid read lock (RLockGrid) so
// a mutation cannot rewrite the directory mid-translation.
func (s *Store) Grid() *gridfile.File { return s.grid }

// Manifest returns the layout's geometry.
func (s *Store) Manifest() Manifest { return s.manifest }

// placement returns bucket id's placement, or nil for an unknown bucket: a
// load of the table and of one slot, no lock. The Placement is shared and
// must not be modified.
func (s *Store) placement(id int32) *Placement {
	t := *s.places.Load()
	if uint32(id) >= uint32(len(t)) { // a negative id too
		return nil
	}
	return t[id].Load()
}

// setPlacement publishes pl as bucket id's placement, or drops the bucket's
// when pl is nil, growing the table first when id lies beyond it. Caller
// holds w.mu, or has the store to itself (Open, writeLayout), and pl is never
// modified once stored.
func (s *Store) setPlacement(id int32, pl *Placement) {
	t := *s.places.Load()
	if int(id) >= len(t) {
		g := make([]atomic.Pointer[Placement], max(int(id)+1, 2*len(t)))
		for i := range t {
			g[i].Store(t[i].Load())
		}
		s.places.Store(&g)
		t = g
	}
	t[id].Store(pl)
}

// Placement reports where one bucket lives, and whether it exists.
func (s *Store) Placement(id int32) (Placement, bool) {
	if pl := s.placement(id); pl != nil {
		return *pl, true
	}
	return Placement{}, false
}

// livePlacements returns the live buckets' placements — the table's non-nil
// slots, in id order and so in the grid's Buckets() order — read under the
// grid read lock: one directory's.
func (s *Store) livePlacements() ([]*Placement, error) {
	s.RLockGrid()
	defer s.RUnlockGrid()
	live := make([]*Placement, 0, s.grid.NumBuckets())
	t := *s.places.Load()
	for i := range t {
		if pl := t[i].Load(); pl != nil {
			live = append(live, pl)
		}
	}
	if len(live) != s.grid.NumBuckets() {
		return nil, fmt.Errorf("store: %d placements for %d live buckets", len(live), s.grid.NumBuckets())
	}
	return live, nil
}

// PickOwner returns the first owner disk of one bucket after disk after, in
// OwnerDisks order, whose copy did not miss its last write (errStaleCopy).
// With after = -1 it starts at the primary, so a read goes to the first whole
// copy and a failed read goes to the next one: a bucket's owners are tried in
// order, each at most once. ok is false when the bucket is unknown, after is
// not one of its owners, or no whole copy follows it.
//
// This relies on one invariant: a live bucket's owner list never changes.
// rewriteBucket writes new pages on the same owners, and apply gives a
// split-born bucket its target's owners, so a read that failed on disk after
// finds after in the list it was routed by. Anything that moves a bucket to
// other owners must revisit this rule first.
func (s *Store) PickOwner(id int32, after int) (disk int, ok bool) {
	pl := s.placement(id)
	if pl == nil {
		return 0, false
	}
	owners := pl.OwnerDisks
	if after >= 0 {
		i := slices.Index(owners, after)
		if i < 0 {
			return 0, false
		}
		owners = owners[i+1:]
	}
	for _, d := range owners {
		if !slices.Contains(pl.missed, d) {
			return d, true
		}
	}
	return 0, false
}

// bufPool recycles page read buffers between bucket fetches so the serving
// hot path does not allocate one buffer per read. Buffers are sized to the
// largest request seen and reused across spans. The pool holds the pointer
// getBuf handed out, so a put allocates no slice header.
var bufPool sync.Pool

func getBuf(n int) *[]byte {
	if v := bufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	b := make([]byte, n)
	return &b
}

func putBuf(bp *[]byte) { bufPool.Put(bp) }

// checkPage is the one test of a page read from disk, for decode and scrub
// alike: page p of bucket id must carry its checksum, the bucket's id and a
// record count that fits the page. It returns the count.
func (s *Store) checkPage(page []byte, id int32, p int) (int, error) {
	if got, want := binary.LittleEndian.Uint32(page[8:]), pageChecksum(page); got != want {
		return 0, fmt.Errorf("store: bucket %d page %d: %w (stored %08x, computed %08x)",
			id, p, errChecksum, got, want)
	}
	if got := int32(binary.LittleEndian.Uint32(page[0:])); got != id {
		return 0, fmt.Errorf("store: page %d of bucket %d holds bucket %d", p, id, got)
	}
	n := int(binary.LittleEndian.Uint32(page[4:]))
	if n < 0 || pageHeaderBytes+n*8*s.manifest.Dims > len(page) {
		return 0, fmt.Errorf("store: bucket %d page %d has implausible count %d", id, p, n)
	}
	return n, nil
}

// decodeBucketFlat validates and decodes one bucket's pages from data
// (exactly pl.Pages consecutive pages) into arena form: one freshly
// allocated flat coordinate array — a single allocation regardless of
// record count, with the records' bounding box (geom.Flat.Box) carved from
// its head. The box is left nil for an empty bucket and when a coordinate is
// NaN (gridfile.Read refuses NaN keys, so only damage that its page's
// checksum misses can put one there): no box bounds such a row, and the
// scan's per-row predicate excludes it. The result always carries the
// manifest's dimensionality, even for an empty bucket, so callers can
// distinguish "decoded empty" from the zero Flat.
func (s *Store) decodeBucketFlat(data []byte, pl *Placement) (geom.Flat, error) {
	dims := s.manifest.Dims
	pageBytes := s.manifest.PageBytes
	ncoords := pl.Recs * dims
	// The box goes in front: a scan reads it first, and the cache line it
	// arrives in brings the first rows along.
	arena := make([]float64, 2*dims+ncoords)
	box, coords := arena[:2*dims:2*dims], arena[2*dims:]
	k := 0 // coordinates decoded so far
	for p := 0; p < pl.Pages; p++ {
		page := data[p*pageBytes : (p+1)*pageBytes]
		n, err := s.checkPage(page, pl.ID, p)
		if err != nil {
			return geom.Flat{}, err
		}
		if k+n*dims > ncoords {
			return geom.Flat{}, fmt.Errorf("store: bucket %d holds at least %d records, its placement says %d",
				pl.ID, k/dims+n, pl.Recs)
		}
		src := page[pageHeaderBytes : pageHeaderBytes+n*8*dims]
		dst := coords[k : k+n*dims]
		for i := range dst {
			dst[i] = bitsFloat(binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
		k += n * dims
	}
	if k != ncoords {
		return geom.Flat{}, fmt.Errorf("store: bucket %d holds %d records, its placement says %d",
			pl.ID, k/dims, pl.Recs)
	}
	fl := geom.Flat{Dims: dims, Coords: coords}
	if ncoords == 0 {
		return fl, nil
	}
	// The bounds: one strided pass per dimension over what is now in the
	// CPU's cache. Which row holds the next minimum is a coin toss a branch
	// predictor loses, so the pass compares order keys — unsigned integers
	// that sort as their floats do — whose min and max compile to
	// conditional moves. NaNs sort beyond both infinities: if there is one,
	// a bound decodes to it.
	for d := 0; d < dims; d++ {
		lo, hi := ^uint64(0), uint64(0)
		for i := d; i < ncoords; i += dims {
			key := orderKey(coords[i])
			lo, hi = min(lo, key), max(hi, key)
		}
		box[2*d], box[2*d+1] = keyFloat(lo), keyFloat(hi)
		if math.IsNaN(box[2*d]) || math.IsNaN(box[2*d+1]) {
			return fl, nil
		}
	}
	fl.Box = box
	return fl, nil
}

// SetFaults attaches a failpoint registry consulted before every positioned
// read, at both fault.SiteStoreRead and the per-disk site for the disk being
// read. A nil registry (the default) disables injection entirely. Call this
// before handing the Store to concurrent readers.
func (s *Store) SetFaults(reg *fault.Registry) {
	s.faults = reg
	s.diskSites = make([]string, s.manifest.Disks)
	for d := range s.diskSites {
		s.diskSites[d] = fault.StoreReadDiskSite(d)
	}
}

// SetClock replaces the clock timed reads use. Test hook:
// a deterministic step clock makes pread/decode timings exact. Call before
// handing the Store to concurrent readers.
func (s *Store) SetClock(now func() time.Time) { s.now = now }

// inject consults an armed failpoint registry at a site and, where it has
// one, its per-disk twin, and acts on what fired: the delays add up and stall
// the caller (bounded by ctx), then the first error, if any, is returned; torn
// is reported for reads to act on.
func (s *Store) inject(ctx context.Context, sites ...string) (torn bool, err error) {
	var delay time.Duration
	for _, site := range sites {
		inj, _ := s.faults.Eval(site)
		delay += inj.Delay
		torn = torn || inj.Torn
		if err == nil {
			err = inj.Err
		}
	}
	if delay > 0 {
		if serr := fault.Sleep(ctx, delay); serr != nil {
			return false, serr
		}
	}
	return torn, err
}

// readAt performs one positioned read against a disk file, first consulting
// the failpoint registry. An injected delay stalls (bounded by ctx), an
// injected error aborts the read, and a torn injection lets the read
// complete but destroys the last page's header so decode validation fails —
// modelling a partial write/read that delivered garbage past some point.
// It reports whether the buffer was torn so callers can report the decode
// failure as an injected fault (wrapping fault.ErrInjected).
func (s *Store) readAt(ctx context.Context, disk int, buf []byte, off int64) (torn bool, err error) {
	if s.faults.Enabled() {
		if torn, err = s.inject(ctx, fault.SiteStoreRead, s.diskSites[disk]); err != nil {
			return false, err
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	if _, err := s.files[disk].ReadAt(buf, off); err != nil {
		return false, err
	}
	if torn && len(buf) >= s.manifest.PageBytes {
		// Stamp an impossible bucket id into the final page header; the
		// decode pass rejects it the way it rejects real corruption.
		binary.LittleEndian.PutUint32(buf[len(buf)-s.manifest.PageBytes:], ^uint32(0))
	}
	return torn, nil
}

// Timing accumulates what reads cost and what the span planner did to serve
// them, so one Timing can cover any number of calls. Pread and Decode split
// the wall time between raw positioned I/O (including injected stalls) and
// page validation/decoding. Spans counts the positioned reads issued and
// GapPages the unwanted pages they read through and dropped; the page total
// ReadFlatsFromTimed returns counts wanted pages only. Counts are added by
// calls that succeed. Callers that pass nil pay nothing at all.
type Timing struct {
	Pread  time.Duration
	Decode time.Duration

	Spans    int
	GapPages int

	// CountsOnly skips the clock reads and leaves Pread and Decode alone,
	// for callers that want the planner's counts on an untimed hot path.
	CountsOnly bool
}

// timed reports whether reads should charge wall time to tm.
func (tm *Timing) timed() bool { return tm != nil && !tm.CountsOnly }

// maxSpanPages bounds one span — 1 MiB of 4 KiB pages — so the pooled
// buffers stay a sane size even when many wanted buckets are close together
// on disk. It counts pages, not bytes, like ReadThroughPages: the planner
// cuts the same spans from the same page indexes whatever size the layout's
// pages are.
const maxSpanPages = 256

// ReadThroughPages is how many unwanted pages a span may read through to
// reach the next wanted bucket on the same disk rather than ending and
// paying for another positioned read. Two break-evens bound it. On a device,
// internal/diskmodel's defaults charge ~10 ms to position and ~1 ms to
// transfer a 4 KiB page, so reading through pays up to 10 pages. On the
// page-cache path a positioned read costs a syscall and a gap page costs a
// copy into a buffer that is then colder; measured on the benchmark's
// cold-closed workload, 0, 4 and 8 were within the run-to-run spread of each
// other. 4 is inside both bounds and already halves the spans on a query's
// busiest disk. It is a constant, not a setting — nothing in the repo needs
// a second value — and exported only so tools that model a layout without
// reading it (gridtool simulate, sim.ResponseSpans) cut spans the way the
// planner does.
const ReadThroughPages = 4

// plIdx is one bucket of a batch as the span planner sees it: its placement,
// the first page of the copy on the disk being read, and the caller's result
// slot, so the planner can sort the batch into page order while landing each
// decode in the position the caller asked for. It holds the placement by
// pointer, so the sort moves 24 bytes an element. The scratch slices are
// pooled: a serving path batch allocates nothing here.
type plIdx struct {
	pl   *Placement
	page int64
	idx  int
}

var plScratchPool = sync.Pool{New: func() any {
	s := make([]plIdx, 0, 32)
	return &s
}}

// ReadFlatsFromTimed is the store's read call: it fetches a batch of buckets
// from ONE specific owner disk, out[i] receiving ids[i]'s records as a
// geom.Flat (one allocation per bucket). Every id must have a copy on that
// disk — a replicated layout's secondary copies are addressed by their own
// page offsets, so a failover read against a surviving owner reads that
// owner's copy rather than re-touching the failed disk. The batch is served
// with span reads (see nextSpan): placements sorted by page offset,
// neighbouring ones read with a single ReadAt into a pooled buffer, every
// wanted placement decoded into out[its slot] from its own offset in the
// span and the gap pages in between dropped unlooked at — never decoded,
// checksummed, cached or counted as wanted. The sort makes the sequence of
// positioned reads and failpoint evaluations a function of the batch alone,
// which the deterministic campaign gate relies on. A single bucket is a
// batch of one.
//
// out must have at least len(ids) entries; ids must be distinct (the server
// submits per-disk lead batches, which are). ctx bounds injected stalls; a
// nil ctx is treated as background. The return value is the number of wanted
// pages read — the I/O the paper's response-time metric charges. The cost
// and the planner's counts accumulate into tm (nil disables both). A copy
// that missed its last write is refused with errStaleCopy. Safe for
// concurrent use: positioned reads only, and the pages looked up stay pinned
// (pinPages) until the last pread has returned.
func (s *Store) ReadFlatsFromTimed(ctx context.Context, disk int, ids []int32, out []geom.Flat, tm *Timing) (int, error) {
	e := s.pinPages()
	defer s.unpinPages(e)
	sp := plScratchPool.Get().(*[]plIdx)
	pls := (*sp)[:0]
	var err error
	for i, id := range ids {
		pl := s.placement(id)
		if pl == nil {
			err = fmt.Errorf("store: unknown bucket %d", id)
			break
		}
		if slices.Contains(pl.missed, disk) {
			err = fmt.Errorf("store: bucket %d on disk %d: %w", id, disk, errStaleCopy)
			break
		}
		o := slices.Index(pl.OwnerDisks, disk)
		if o < 0 {
			err = fmt.Errorf("store: bucket %d has no copy on disk %d", id, disk)
			break
		}
		pls = append(pls, plIdx{pl, pl.OwnerPages[o], i})
	}
	pages := 0
	if err == nil {
		pages, err = s.readSpans(ctx, disk, pls, out, tm)
	}
	*sp = pls[:0]
	plScratchPool.Put(sp)
	return pages, err
}

// cmpDiskPage orders placements by their primary copy's (disk, page): the
// order a sweep of the disk files meets them in.
func cmpDiskPage(a, b *Placement) int {
	if a.OwnerDisks[0] != b.OwnerDisks[0] {
		return a.OwnerDisks[0] - b.OwnerDisks[0]
	}
	return cmp.Compare(a.OwnerPages[0], b.OwnerPages[0])
}

// nextSpan is the span planner, the one place that decides which positioned
// reads serve a batch. Given one disk's placements sorted by page it cuts the
// span that starts at pls[lo]: the span continues while the next wanted
// placement starts at most ReadThroughPages past the end of the previous one
// and the span stays within maxSpanPages (a single placement larger than that
// is a span of its own). It returns the index one past the span's last
// placement, the page one past its last wanted page — a span always ends on a
// wanted page, so a torn read, which destroys the final page, is still caught
// by a decode — and the unwanted pages inside.
func nextSpan(pls []plIdx, lo int) (hi int, end, gaps int64) {
	first := pls[lo].page
	end = first + int64(pls[lo].pl.Pages)
	for hi = lo + 1; hi < len(pls); hi++ {
		nx := pls[hi].page
		nxEnd := nx + int64(pls[hi].pl.Pages)
		if nx-end > ReadThroughPages || nxEnd-first > maxSpanPages {
			break
		}
		if nx > end {
			gaps += nx - end
		}
		end = max(end, nxEnd)
	}
	return hi, end, gaps
}

// readSpans reads one disk's placements: sorted by page, cut into spans by
// nextSpan, one ReadAt per span.
func (s *Store) readSpans(ctx context.Context, disk int, pls []plIdx, out []geom.Flat, tm *Timing) (int, error) {
	// slices.SortFunc rather than sort.Slice: no closure/Swapper allocations
	// on the per-batch hot path.
	slices.SortFunc(pls, func(a, b plIdx) int { return cmp.Compare(a.page, b.page) })

	pageBytes := int64(s.manifest.PageBytes)
	timed := tm.timed()
	pages, spans, gapPages := 0, 0, int64(0)
	for lo := 0; lo < len(pls); {
		first := pls[lo].page
		hi, end, gaps := nextSpan(pls, lo)
		bp := getBuf(int((end - first) * pageBytes))
		buf := *bp
		var t0 time.Time
		if timed {
			t0 = s.now()
		}
		torn, err := s.readAt(ctx, disk, buf, first*pageBytes)
		if timed {
			now := s.now()
			tm.Pread += now.Sub(t0)
			t0 = now
		}
		if err != nil {
			putBuf(bp)
			return 0, fmt.Errorf("store: reading buckets %d..%d: %w",
				pls[lo].pl.ID, pls[hi-1].pl.ID, err)
		}
		for _, pi := range pls[lo:hi] {
			off := (pi.page - first) * pageBytes
			fl, err := s.decodeBucketFlat(buf[off:off+int64(pi.pl.Pages)*pageBytes], pi.pl)
			if err != nil {
				putBuf(bp)
				if torn {
					return 0, fmt.Errorf("store: torn read of bucket %d: %w (%v)",
						pi.pl.ID, fault.ErrInjected, err)
				}
				return 0, err
			}
			out[pi.idx] = fl
			pages += pi.pl.Pages
		}
		putBuf(bp)
		if timed {
			tm.Decode += s.now().Sub(t0)
		}
		spans++
		gapPages += gaps
		lo = hi
	}
	if tm != nil {
		tm.Spans += spans
		tm.GapPages += int(gapPages)
	}
	return pages, nil
}

// DiskSizes returns every disk file's size in pages.
func (s *Store) DiskSizes() ([]int64, error) {
	out := make([]int64, len(s.files))
	for d, fh := range s.files {
		st, err := fh.Stat()
		if err != nil {
			return nil, err
		}
		out[d] = st.Size() / int64(s.manifest.PageBytes)
	}
	return out, nil
}

// Close attempts a final checkpoint (best-effort — replay covers whatever it
// could not flush; a store that took no write since its last one writes
// nothing), then releases the journals and the disk file handles; use
// Checkpoint directly when the caller needs the error.
func (s *Store) Close() {
	s.w.mu.Lock()
	_ = s.checkpointLocked(false)
	s.w.mu.Unlock()
	s.CloseNoCheckpoint()
}

// DiskFileName names disk d's page file within a layout directory. Exported
// so tooling that manipulates layouts physically (fault campaigns, tests)
// agrees with the writer on spelling.
func DiskFileName(d int) string { return fmt.Sprintf("disk%03d.dat", d) }

// orderKey maps a float64 to an unsigned integer that orders as the floats
// do (−0 just below +0), with negative NaNs below −Inf and positive NaNs
// above +Inf: a negative float's bits are all flipped, a positive one's sign
// bit set. keyFloat is its inverse.
func orderKey(v float64) uint64 {
	u := math.Float64bits(v)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

func keyFloat(key uint64) float64 {
	return math.Float64frombits(key ^ (^uint64(int64(key)>>63) | 1<<63))
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

func closeAll(files []*os.File) {
	for _, fh := range files {
		fh.Close()
	}
}
