// Package store persists a declustered grid file the way the paper's
// simulator does: "reads in the dataset and declusters it to separate files
// corresponding to every disk being simulated". A layout directory holds
//
//	manifest.json   grid metadata, page size and the bucket placement map;
//	                it appears by rename once all it names is durable, and a
//	                directory without one is not a layout
//	grid.grd        the grid file's scales and directory (coordinator state);
//	                grid.<lsn>.grd once a checkpoint has moved the layout on
//	disk000.dat …   one page file per disk; each bucket occupies one or
//	                more consecutive pages on its assigned disk
//	journal000.wal … one write-ahead journal per disk, from the first
//	                OpenWritable on (write.go); a fresh layout has none
//
// There is one way onto disk: a fresh layout (writeLayout) is checkpoint zero
// of the write path, and one owner of the grid file: the Store loads it and
// checks it against the manifest (loadGrid), and callers translate queries
// against Store.Grid().
//
// Pages are fixed-size; a bucket larger than one page (possible only for
// the overfull duplicate-key case) spans consecutive pages. The reader
// serves individual buckets with real file I/O, so experiments can be run
// against actual per-disk files rather than in-memory structures.
//
// A Store is safe for concurrent readers: ReadFlatsFromTimed addresses pages
// with pread-style ReadAt calls on per-disk file handles and mutates no
// shared state, so any number of goroutines may fetch buckets simultaneously
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
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
// pageFormat is the number the manifest records for this layout.
const (
	pageHeaderBytes = 16
	pageFormat      = 2
)

// pageChecksum computes the CRC-32C of a page with the crc field (bytes
// 8..12) treated as zero.
func pageChecksum(page []byte) uint32 {
	var zero [4]byte
	c := crc32.Update(0, crcTable, page[:8])
	c = crc32.Update(c, crcTable, zero[:])
	return crc32.Update(c, crcTable, page[12:])
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
// OwnerPages[i]. Disk and Page always mirror owner 0 (the primary copy).
type Placement struct {
	ID         int32   `json:"id"`
	Disk       int     `json:"disk"`
	Page       int64   `json:"page"`  // first page index within the disk file
	Pages      int     `json:"pages"` // consecutive pages occupied
	Recs       int     `json:"recs"`
	OwnerDisks []int   `json:"owner_disks"`
	OwnerPages []int64 `json:"owner_pages"`

	// missed lists the owner disks whose copy a page-write failure kept from
	// the bucket's last rewrite (write.go); never part of a manifest, because
	// checkpoints are withheld while any copy has missed a write.
	missed []int
}

// Manifest describes a layout directory.
type Manifest struct {
	Disks      int `json:"disks"`
	Dims       int `json:"dims"`
	PageBytes  int `json:"page_bytes"`
	Replicas   int `json:"replicas,omitempty"` // copies per bucket; 0/absent means 1
	PageFormat int `json:"page_format"`        // always pageFormat
	// CheckpointLSN is the last journaled operation whose effects are
	// captured by this manifest and its grid/page files. Replay skips
	// journal records at or below it, which makes a crash between the
	// checkpoint's manifest rename and its journal truncation harmless
	// (the stale journal records are simply ignored). Zero on read-only
	// layouts that never saw a write.
	CheckpointLSN uint64       `json:"checkpoint_lsn,omitempty"`
	Domain        [][2]float64 `json:"domain"`
	Buckets       []Placement  `json:"buckets"`
}

// manifestVersion is the envelope a layout's manifest.json is wrapped in:
// {"version": N, "layout": {…}}. Version 3 with page format 2 is the only
// layout this package writes or reads; Open refuses anything else. The layout
// stays raw when read, so the version is checked before it is parsed.
type manifestVersion struct {
	Version int             `json:"version"`
	Layout  json.RawMessage `json:"layout"`
}

const manifestVersionCurrent = 3

// marshalManifest encodes m in its version envelope, as manifest.json holds
// it: byte for byte what encoding/json's MarshalIndent with a two-space
// indent gives (FuzzManifest holds it to that reference), but appended by
// hand, because a checkpoint encodes one placement per bucket and reflection
// and indenting were most of its cost.
func marshalManifest(m *Manifest) ([]byte, error) {
	b := make([]byte, 0, 512+220*len(m.Buckets))
	b = append(b, "{\n  \"version\": "...)
	b = strconv.AppendInt(b, manifestVersionCurrent, 10)
	b = append(b, ",\n  \"layout\": {\n    \"disks\": "...)
	b = strconv.AppendInt(b, int64(m.Disks), 10)
	b = append(b, ",\n    \"dims\": "...)
	b = strconv.AppendInt(b, int64(m.Dims), 10)
	b = append(b, ",\n    \"page_bytes\": "...)
	b = strconv.AppendInt(b, int64(m.PageBytes), 10)
	if m.Replicas != 0 {
		b = append(b, ",\n    \"replicas\": "...)
		b = strconv.AppendInt(b, int64(m.Replicas), 10)
	}
	b = append(b, ",\n    \"page_format\": "...)
	b = strconv.AppendInt(b, int64(m.PageFormat), 10)
	if m.CheckpointLSN != 0 {
		b = append(b, ",\n    \"checkpoint_lsn\": "...)
		b = strconv.AppendUint(b, m.CheckpointLSN, 10)
	}
	b = append(b, ",\n    \"domain\": "...)
	switch {
	case m.Domain == nil:
		b = append(b, "null"...)
	case len(m.Domain) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, iv := range m.Domain {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n      [\n        "...)
			var err error
			if b, err = appendJSONFloat(b, iv[0]); err != nil {
				return nil, err
			}
			b = append(b, ",\n        "...)
			if b, err = appendJSONFloat(b, iv[1]); err != nil {
				return nil, err
			}
			b = append(b, "\n      ]"...)
		}
		b = append(b, "\n    ]"...)
	}
	b = append(b, ",\n    \"buckets\": "...)
	switch {
	case m.Buckets == nil:
		b = append(b, "null"...)
	case len(m.Buckets) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, pl := range m.Buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n      {\n        \"id\": "...)
			b = strconv.AppendInt(b, int64(pl.ID), 10)
			b = append(b, ",\n        \"disk\": "...)
			b = strconv.AppendInt(b, int64(pl.Disk), 10)
			b = append(b, ",\n        \"page\": "...)
			b = strconv.AppendInt(b, pl.Page, 10)
			b = append(b, ",\n        \"pages\": "...)
			b = strconv.AppendInt(b, int64(pl.Pages), 10)
			b = append(b, ",\n        \"recs\": "...)
			b = strconv.AppendInt(b, int64(pl.Recs), 10)
			b = append(b, ",\n        \"owner_disks\": "...)
			b = appendJSONInts(b, pl.OwnerDisks)
			b = append(b, ",\n        \"owner_pages\": "...)
			b = appendJSONInts(b, pl.OwnerPages)
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    ]"...)
	}
	return append(b, "\n  }\n}"...), nil
}

// appendJSONInts appends a placement's owner list as marshalManifest lays it
// out: one number per line, the brackets at the placement's field indent.
func appendJSONInts[T int | int64](b []byte, xs []T) []byte {
	switch {
	case xs == nil:
		return append(b, "null"...)
	case len(xs) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n          "...)
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, "\n        ]"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form (e-7, not e-07) below 1e-6
// and from 1e21 up. NaN and the infinities are not JSON numbers.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("store: manifest: domain bound %v is not a JSON number", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
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

// Write lays out the grid file's buckets over per-disk page files under
// dir, following the allocation. It returns the manifest it wrote.
func Write(dir string, f *gridfile.File, alloc core.Allocation, pageBytes int) (*Manifest, error) {
	if err := alloc.Validate(f.NumBuckets()); err != nil {
		return nil, err
	}
	owners := make([][]int, f.NumBuckets())
	backing := make([]int, f.NumBuckets())
	for i, d := range alloc.Assign {
		backing[i] = d
		owners[i] = backing[i : i+1 : i+1]
	}
	return writeLayout(dir, f, owners, alloc.Disks, 1, pageBytes, nil)
}

// WriteReplicated lays out the grid file with each bucket written to every
// disk in its owner list, following a replica map (see internal/replica).
func WriteReplicated(dir string, f *gridfile.File, rm *replica.Map, pageBytes int) (*Manifest, error) {
	if err := rm.Validate(f.NumBuckets()); err != nil {
		return nil, err
	}
	return writeLayout(dir, f, rm.Owners, rm.Disks, rm.Replicas, pageBytes, nil)
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
// them out. Placements are explicit in the manifest, so the order is a
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
// data fsynced, then grid.grd, then manifest.json by rename. Until that rename
// the directory is not a layout: whatever an earlier life left in it goes
// first, the manifest before anything else and the journals with it, so that
// neither a kill part-way nor the next OpenWritable pairs the new pages with
// the old life's placements or operations. crash is the write path's kill
// hook, for the tests.
func writeLayout(dir string, f *gridfile.File, owners [][]int, disks, replicas, pageBytes int, crash func() bool) (*Manifest, error) {
	if pageBytes <= pageHeaderBytes+8*f.Dims() {
		return nil, fmt.Errorf("store: page size %d too small for %d-D records", pageBytes, f.Dims())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := removeStrays(dir, "", true); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}

	s := &Store{
		manifest: Manifest{Disks: disks, Dims: f.Dims(), PageBytes: pageBytes, PageFormat: pageFormat},
		dir:      dir,
		grid:     f,
		w:        &writer{nextPage: make([]int64, disks), nextLSN: 1, crash: crash},
	}
	if replicas > 1 {
		s.manifest.Replicas = replicas
	}
	for _, iv := range f.Domain() {
		s.manifest.Domain = append(s.manifest.Domain, [2]float64{iv.Lo, iv.Hi})
	}
	defer func() { closeAll(s.files) }()
	for d := 0; d < disks; d++ {
		fh, err := os.Create(filepath.Join(dir, DiskFileName(d)))
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, fh)
	}

	// The table is made once, at its final size, and the stubs share one
	// allocation: each bucket's rewrite publishes the one placement it keeps.
	views := f.Buckets()
	s.places.Store(newPlaceTable(views))
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
	m := s.manifest
	return &m, nil
}

// Store reads buckets from a layout directory with real file I/O.
type Store struct {
	manifest Manifest
	dir      string
	files    []*os.File

	// grid is the layout's grid file — the coordinator's scales, directory
	// and records — loaded from the file the manifest's checkpoint LSN names
	// and checked against the manifest by open. A read-only store never
	// changes it; a writable one mutates it under w.gridMu.
	grid *gridfile.File

	// pmu is the writers' lock: a placement store (setPlacement) holds it, and
	// so does a checkpoint's update of the manifest's bucket list, which
	// Manifest reads under RLock. No read path takes it.
	pmu sync.RWMutex
	// places is the placement table: slot id holds bucket id's placement, or
	// nil. Bucket ids index the grid file's bucket table, so the table is
	// dense. A reader loads the table and a slot with no lock. Placements are
	// copy-on-write: a writer holding pmu stores a fresh one and never
	// changes one it has published, so whatever a reader loaded stays whole.
	// The table grows only by replacement, under pmu, after every slot has
	// been copied, so a writer always stores into the current table.
	// Old-or-new: a reader that loaded the table before a growth may read a
	// slot as it stood at that growth; any placement published after the
	// growth was published after the reader began, so its query overlaps that
	// write. A reader that starts after a write has returned loads the
	// current table. The pages an old placement names stay intact while the
	// reader is pinned (pinPages), which is why ReadFlatsFromTimed pins
	// before it loads the table.
	places atomic.Pointer[[]atomic.Pointer[Placement]]

	// w holds the mutable-store state (grid lock, journals, allocation
	// cursors); nil unless the store was opened with OpenWritable.
	w *writer

	// verify, when true, checks every page's CRC-32C during decode. Set
	// before concurrent use.
	verify bool

	// now is the clock timed reads use; a test hook (SetClock) can replace
	// it.
	now func() time.Time

	// faults, when non-nil, is consulted before every positioned read at
	// the fault.SiteStoreRead and per-disk sites. diskSites precomputes the
	// per-disk names so the hot path never formats strings.
	faults    *fault.Registry
	diskSites []string
}

// Open loads a layout directory written by Write or WriteReplicated. It
// reads one layout generation — the version-3 envelope with page format 2 —
// and refuses every other; it also refuses a manifest whose placements could
// not all be read from the disk files as they stand, and one whose grid file
// is missing or is not the grid the placements describe.
func Open(dir string) (*Store, error) { return open(dir, false) }

// errVintage builds the refusal for a layout generation this reader does not
// serve: what names the field that gave it away, got its value.
func errVintage(what string, got int) error {
	return fmt.Errorf("store: %s %d: only version-%d manifests with page format %d are readable; regenerate the layout with `gridtool layout`",
		what, got, manifestVersionCurrent, pageFormat)
}

// open is the shared Open/OpenWritable core; writable selects read-write
// disk file handles.
func open(dir string, writable bool) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	return openManifest(dir, raw, writable)
}

// openManifest opens dir's disk files and grid file under the given
// manifest.json contents (split from open so FuzzManifest can skip the file
// write).
func openManifest(dir string, raw []byte, writable bool) (*Store, error) {
	var env manifestVersion
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("store: parsing manifest: %w", err)
	}
	if env.Version != manifestVersionCurrent || env.Layout == nil {
		return nil, errVintage("manifest version", env.Version)
	}
	var m Manifest
	if err := json.Unmarshal(env.Layout, &m); err != nil {
		return nil, fmt.Errorf("store: parsing manifest: %w", err)
	}
	if m.PageFormat != pageFormat {
		return nil, errVintage("page format", m.PageFormat)
	}
	if m.Disks < 1 || m.Dims < 1 || len(m.Domain) != m.Dims ||
		m.PageBytes <= pageHeaderBytes || recordsPerPage(m.PageBytes, m.Dims) < 1 {
		return nil, fmt.Errorf("store: implausible manifest (disks=%d dims=%d page=%d domain=%d)",
			m.Disks, m.Dims, m.PageBytes, len(m.Domain))
	}
	if m.Replicas == 0 {
		m.Replicas = 1
	}
	if m.Replicas < 1 || m.Replicas > m.Disks {
		return nil, fmt.Errorf("store: manifest has %d replicas on %d disks", m.Replicas, m.Disks)
	}
	s := &Store{
		manifest: m,
		dir:      dir,
		now:      time.Now,
	}
	flags := os.O_RDONLY
	if writable {
		flags = os.O_RDWR
	}
	// The handles are opened one by one rather than into a slice sized from
	// the manifest, so a hostile disk count fails on its first missing file
	// instead of allocating.
	for d := 0; d < m.Disks; d++ {
		fh, err := os.OpenFile(filepath.Join(dir, DiskFileName(d)), flags, 0)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.files = append(s.files, fh)
	}
	sizes, err := s.DiskSizes()
	if err != nil {
		s.Close()
		return nil, err
	}
	for _, pl := range m.Buckets {
		if err := validatePlacement(pl, &m, sizes); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.loadGrid(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// loadGrid reads the grid file the manifest's checkpoint LSN names
// (gridFileName) and requires it to be the grid the manifest places: the same
// dimensionality and buckets, holding the same number of records each. The
// store is the one owner of a layout's grid; whoever translates queries
// translates against this one. The placement table is built here, sized by
// the grid file's bucket ids: an id the manifest claims is checked against
// them before it can size anything.
func (s *Store) loadGrid() error {
	m := &s.manifest
	fh, err := os.Open(filepath.Join(s.dir, gridFileName(m.CheckpointLSN)))
	if err != nil {
		return fmt.Errorf("store: layout has no grid file: %w", err)
	}
	defer fh.Close()
	g, err := gridfile.Read(fh)
	if err != nil {
		return fmt.Errorf("store: %s: %w", gridFileName(m.CheckpointLSN), err)
	}
	views := g.Buckets()
	if g.Dims() != m.Dims || len(views) != len(m.Buckets) {
		return fmt.Errorf("store: grid file is %d-D with %d buckets, manifest %d-D with %d (layout from a different grid file?)",
			g.Dims(), len(views), m.Dims, len(m.Buckets))
	}
	t := newPlaceTable(views)
	pls := slices.Clone(m.Buckets) // one allocation backs every placement
	for i := range pls {
		pl := &pls[i]
		if uint32(pl.ID) >= uint32(len(*t)) { // a negative id too
			return fmt.Errorf("store: manifest places bucket %d, which the grid file does not hold", pl.ID)
		}
		if (*t)[pl.ID].Load() != nil {
			return fmt.Errorf("store: bucket %d listed twice", pl.ID)
		}
		(*t)[pl.ID].Store(pl)
	}
	for _, v := range views {
		pl := (*t)[v.ID].Load()
		if pl == nil {
			return fmt.Errorf("store: the grid file's bucket %d is missing from the manifest", v.ID)
		}
		if pl.Recs != v.Records {
			return fmt.Errorf("store: bucket %d holds %d records in the manifest, %d in the grid file",
				v.ID, pl.Recs, v.Records)
		}
	}
	s.places.Store(t)
	s.grid = g
	return nil
}

// newPlaceTable makes an empty placement table with a slot for every bucket
// id among views.
func newPlaceTable(views []gridfile.BucketView) *[]atomic.Pointer[Placement] {
	n := 0
	for _, v := range views {
		n = max(n, int(v.ID)+1)
	}
	t := make([]atomic.Pointer[Placement], n)
	return &t
}

// validatePlacement checks one placement against the manifest and the disk
// files (sizes in pages): exactly Replicas distinct in-range owner disks, one
// copy of at least one page on each lying wholly inside its file, a primary
// that mirrors owner 0, and a record count that fits the pages. Whatever
// passes can be handed to the read path without a bounds check.
func validatePlacement(pl Placement, m *Manifest, sizes []int64) error {
	if pl.Pages < 1 {
		return fmt.Errorf("store: bucket %d occupies %d pages", pl.ID, pl.Pages)
	}
	if len(pl.OwnerDisks) != m.Replicas || len(pl.OwnerPages) != m.Replicas {
		return fmt.Errorf("store: bucket %d has %d/%d owner disks/pages, want %d",
			pl.ID, len(pl.OwnerDisks), len(pl.OwnerPages), m.Replicas)
	}
	if pl.OwnerDisks[0] != pl.Disk || pl.OwnerPages[0] != pl.Page {
		return fmt.Errorf("store: bucket %d primary disagrees with owner 0", pl.ID)
	}
	for i, d := range pl.OwnerDisks {
		if d < 0 || d >= m.Disks {
			return fmt.Errorf("store: bucket %d on disk %d of %d", pl.ID, d, m.Disks)
		}
		if slices.Contains(pl.OwnerDisks[:i], d) {
			return fmt.Errorf("store: bucket %d owns disk %d twice", pl.ID, d)
		}
		if pg := pl.OwnerPages[i]; pg < 0 || pg > sizes[d]-int64(pl.Pages) {
			return fmt.Errorf("store: bucket %d pages %d+%d lie outside disk %d (%d pages)",
				pl.ID, pg, pl.Pages, d, sizes[d])
		}
	}
	// Pages is bounded by a real file size by now, so the product is safe.
	if pl.Recs < 0 || pl.Recs > pl.Pages*recordsPerPage(m.PageBytes, m.Dims) {
		return fmt.Errorf("store: bucket %d claims %d records in %d pages", pl.ID, pl.Recs, pl.Pages)
	}
	return nil
}

// Grid returns the layout's grid file. On a writable store it mutates under
// concurrent queries: callers translating against it must hold the grid read
// lock (RLockGrid) so a mutation cannot rewrite the directory mid-translation.
func (s *Store) Grid() *gridfile.File { return s.grid }

// Manifest returns the layout description.
func (s *Store) Manifest() Manifest {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.manifest
}

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
// holds pmu, and pl is never modified once stored.
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

// Replicas returns the number of copies of each bucket in the layout
// (1 for an unreplicated layout).
func (s *Store) Replicas() int { return s.manifest.Replicas }

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
// alike: page p of bucket id must carry its checksum (checked when verify is
// set), the bucket's id and a record count that fits the page. It returns the
// count.
func (s *Store) checkPage(page []byte, id int32, p int, verify bool) (int, error) {
	if verify {
		if got, want := binary.LittleEndian.Uint32(page[8:]), pageChecksum(page); got != want {
			return 0, fmt.Errorf("store: bucket %d page %d: %w (stored %08x, computed %08x)",
				id, p, errChecksum, got, want)
		}
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
// NaN (only a damaged page read with verification off holds one): no box
// bounds such a row, and the scan's per-row predicate excludes it. The
// result always carries the manifest's dimensionality, even for an empty
// bucket, so callers can distinguish "decoded empty" from the zero Flat.
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
		n, err := s.checkPage(page, pl.ID, p, s.verify)
		if err != nil {
			return geom.Flat{}, err
		}
		if k+n*dims > ncoords {
			return geom.Flat{}, fmt.Errorf("store: bucket %d holds at least %d records, manifest says %d",
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
		return geom.Flat{}, fmt.Errorf("store: bucket %d holds %d records, manifest says %d",
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

// SetVerify enables (or disables) CRC-32C validation of every page during
// decode. Call before handing the Store to concurrent readers.
func (s *Store) SetVerify(on bool) { s.verify = on }

// SetClock replaces the clock timed reads use. Test hook:
// a deterministic step clock makes pread/decode timings exact. Call before
// handing the Store to concurrent readers.
func (s *Store) SetClock(now func() time.Time) { s.now = now }

// inject consults an armed failpoint registry at a site and at its per-disk
// twin and acts on what fired: the delays add up and stall the caller
// (bounded by ctx), then the first error, if any, is returned; torn is
// reported for reads to act on.
func (s *Store) inject(ctx context.Context, site, diskSite string) (torn bool, err error) {
	inj, _ := s.faults.Eval(site)
	inj2, _ := s.faults.Eval(diskSite)
	if d := inj.Delay + inj2.Delay; d > 0 {
		if err := fault.Sleep(ctx, d); err != nil {
			return false, err
		}
	}
	if inj.Err == nil {
		inj.Err = inj2.Err
	}
	return inj.Torn || inj2.Torn, inj.Err
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

// maxCoalesceBytes bounds one span so the pooled buffers stay a sane size
// even when many wanted buckets are close together on disk.
const maxCoalesceBytes = 1 << 20

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
// concurrent use: positioned reads only, and on a writable store the pages
// looked up stay pinned (pinPages) until the last pread has returned.
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

// cmpDiskPage orders placements by (disk, page): the order a sweep of the
// disk files meets them in.
func cmpDiskPage(a, b *Placement) int {
	if a.Disk != b.Disk {
		return a.Disk - b.Disk
	}
	return cmp.Compare(a.Page, b.Page)
}

// nextSpan is the span planner, the one place that decides which positioned
// reads serve a batch. Given one disk's placements sorted by page it cuts the
// span that starts at pls[lo]: the span continues while the next wanted
// placement starts at most ReadThroughPages past the end of the previous one
// and the span stays within maxCoalesceBytes (a single
// placement larger than that is a span of its own). It returns the index one
// past the span's last placement, the page one past its last wanted page —
// a span always ends on a wanted page, so a torn read, which destroys the
// final page, is still caught by a decode — and the unwanted pages inside.
func nextSpan(pls []plIdx, lo int, pageBytes int64) (hi int, end, gaps int64) {
	first := pls[lo].page
	end = first + int64(pls[lo].pl.Pages)
	for hi = lo + 1; hi < len(pls); hi++ {
		nx := pls[hi].page
		nxEnd := nx + int64(pls[hi].pl.Pages)
		if nx-end > ReadThroughPages ||
			(nxEnd-first)*pageBytes > maxCoalesceBytes {
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
		hi, end, gaps := nextSpan(pls, lo, pageBytes)
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

// Close releases the disk file handles. A writable store first attempts a
// final checkpoint (best-effort — replay covers whatever it could not
// flush) and closes its journals; use Checkpoint directly when the caller
// needs the error.
func (s *Store) Close() {
	if w := s.w; w != nil {
		w.mu.Lock()
		_ = s.checkpointLocked(false)
		closeAll(w.journals)
		w.mu.Unlock()
	}
	closeAll(s.files)
}

// DiskFileName names disk d's page file within a layout directory. Exported
// so tooling that manipulates layouts physically (fault campaigns, tests)
// agrees with the writer on spelling.
func DiskFileName(d int) string { return fmt.Sprintf("disk%03d.dat", d) }

// gridFileName names the grid file embedded in a layout directory whose
// manifest is at checkpoint LSN lsn: grid.grd as the layout writer leaves it,
// grid.<lsn>.grd once checkpoints have moved it on. A grid file is reachable
// only through the manifest that names it this way, which is what lets the
// manifest's rename commit both at once.
func gridFileName(lsn uint64) string {
	if lsn == 0 {
		return "grid.grd"
	}
	return fmt.Sprintf("grid.%d.grd", lsn)
}

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
		if fh != nil {
			fh.Close()
		}
	}
}
