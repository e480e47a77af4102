package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"pgridfile/internal/gridfile"
	"pgridfile/internal/le"
)

// The checkpoint file. A layout's committed state is one little-endian file,
// layout.grd, in three sections:
//
//	grid        the grid file as gridfile.File.WriteTo writes it, first, so
//	            that any grid file reader (gridtool stats -file) reads it
//	header      magic "PGLY" | page format u32 | disks u64 | page bytes u64 |
//	            replicas u64 | checkpoint LSN u64
//	placements  per live bucket, in the grid's Buckets() order, per copy in
//	            owner order: owner disk u32 | first page u64
//
// Nothing else is stored: a placement's id, record count and page count, the
// dimensionality and the domain all follow from the grid section, so there is
// nothing for two sources to disagree on.
const (
	checkpointMagic       = "PGLY"
	checkpointHeaderBytes = 4 + 4 + 4*8
	checkpointCopyBytes   = 4 + 8
)

// writeCheckpoint encodes g, m's geometry, the checkpoint LSN lsn and pls —
// the placements of g's live buckets in Buckets() order — as the checkpoint
// file.
func writeCheckpoint(w io.Writer, g *gridfile.File, m Manifest, lsn uint64, pls []*Placement) error {
	if _, err := g.WriteTo(w); err != nil {
		return err
	}
	bo := binary.LittleEndian
	b := make([]byte, 0, checkpointHeaderBytes+len(pls)*m.Replicas*checkpointCopyBytes)
	b = append(b, checkpointMagic...)
	b = bo.AppendUint32(b, pageFormat)
	for _, v := range []uint64{uint64(m.Disks), uint64(m.PageBytes), uint64(m.Replicas), lsn} {
		b = bo.AppendUint64(b, v)
	}
	for _, pl := range pls {
		for i, d := range pl.OwnerDisks {
			b = bo.AppendUint32(b, uint32(d))
			b = bo.AppendUint64(b, uint64(pl.OwnerPages[i]))
		}
	}
	_, err := w.Write(b)
	return err
}

// openCheckpoint opens dir's disk files under the checkpoint file data and
// sets up the write path over them, journals aside (split from Open so
// FuzzManifest can skip the file write).
func openCheckpoint(dir string, data []byte) (*Store, error) {
	s := &Store{dir: dir, now: time.Now}
	named, lsn, err := s.readCheckpoint(data)
	if err != nil {
		closeAll(s.files)
		return nil, err
	}
	s.w = newWriter(named, lsn)
	return s, nil
}

// readCheckpoint decodes the checkpoint file data into s, opening the disk
// files it names on the way. Every count is checked before it sizes anything:
// the grid section by gridfile.Decode, the disk count by opening the files one
// by one, the replica count against the disks. A placement must name exactly
// Replicas distinct owner disks, each copy lying wholly inside its file on
// pages no other copy names, so whatever passes can be handed to the read path
// without a bounds check, and a rewrite never lands on a page a live copy
// holds. It returns which pages of each disk file the placements name, one
// flag per page of the file as it stands, for the write path's free pages, and
// the checkpoint's LSN (newWriter).
func (s *Store) readCheckpoint(data []byte) (named [][]bool, lsn uint64, err error) {
	g, rest, err := gridfile.Decode(data)
	if err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint grid section: %w", err)
	}
	r := le.NewReader(rest)
	magic := r.Take(4)
	format := r.U32()
	disks, pageBytes, replicas, lsn := r.U64(), r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint header: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, 0, errVintage(fmt.Sprintf("checkpoint header magic %q", magic))
	}
	if format != pageFormat {
		return nil, 0, errVintage(fmt.Sprintf("page format %d", format))
	}
	dims := g.Dims()
	if disks < 1 || disks > math.MaxInt32 || replicas < 1 || replicas > disks ||
		pageBytes > math.MaxInt32 || pageBytes <= pageHeaderBytes || recordsPerPage(int(pageBytes), dims) < 1 {
		return nil, 0, fmt.Errorf("store: implausible checkpoint header (disks=%d replicas=%d page=%d, %d-D records)",
			disks, replicas, pageBytes, dims)
	}
	s.manifest = Manifest{Disks: int(disks), Dims: dims, PageBytes: int(pageBytes), Replicas: int(replicas)}
	s.readThrough = int64(ReadThroughPages(int(pageBytes)))

	// The handles are opened one by one rather than into a slice sized from
	// the header, so a hostile disk count fails on its first missing file
	// instead of allocating.
	for d := 0; d < s.manifest.Disks; d++ {
		fh, err := os.OpenFile(filepath.Join(s.dir, DiskFileName(d)), os.O_RDWR, 0)
		if err != nil {
			return nil, 0, err
		}
		s.files = append(s.files, fh)
	}
	sizes, err := s.DiskSizes()
	if err != nil {
		return nil, 0, err
	}
	named = make([][]bool, len(sizes))
	for d, n := range sizes {
		named[d] = make([]bool, n)
	}

	nr := s.manifest.Replicas
	pls := make([]Placement, 0, g.NumBuckets()) // one allocation backs every placement
	g.ForEachBucket(func(id int32, records int) {
		pls = append(pls, Placement{ID: id, Recs: records})
	})
	owners, firsts := make([]int, len(pls)*nr), make([]int64, len(pls)*nr)
	perPage := recordsPerPage(s.manifest.PageBytes, dims)
	for i := range pls {
		pl := &pls[i]
		pl.Pages = pagesFor(pl.Recs, perPage)
		pl.OwnerDisks, pl.OwnerPages = owners[i*nr:(i+1)*nr:(i+1)*nr], firsts[i*nr:(i+1)*nr:(i+1)*nr]
		for c := range nr {
			d, pg := r.U32(), r.U64()
			if err := r.Err(); err != nil {
				return nil, 0, fmt.Errorf("store: checkpoint placement of bucket %d: %w", pl.ID, err)
			}
			if uint64(d) >= disks {
				return nil, 0, fmt.Errorf("store: bucket %d on disk %d of %d", pl.ID, d, s.manifest.Disks)
			}
			if slices.Contains(pl.OwnerDisks[:c], int(d)) {
				return nil, 0, fmt.Errorf("store: bucket %d owns disk %d twice", pl.ID, d)
			}
			// The copy's pages must lie wholly inside the file; pl.Pages is
			// bounded by the grid's record count, so nothing overflows.
			if n := int64(pl.Pages); sizes[d] < n || pg > uint64(sizes[d]-n) {
				return nil, 0, fmt.Errorf("store: bucket %d pages %d+%d lie outside disk %d (%d pages)",
					pl.ID, pg, pl.Pages, d, sizes[d])
			}
			for p := range int64(pl.Pages) {
				if named[d][int64(pg)+p] {
					return nil, 0, fmt.Errorf("store: bucket %d names page %d of disk %d, which another copy holds",
						pl.ID, int64(pg)+p, d)
				}
				named[d][int64(pg)+p] = true
			}
			pl.OwnerDisks[c], pl.OwnerPages[c] = int(d), int64(pg)
		}
		pl.Disk, pl.Page = pl.OwnerDisks[0], pl.OwnerPages[0]
	}
	if r.Len() != 0 {
		return nil, 0, fmt.Errorf("store: checkpoint: trailing bytes after %d placements", len(pls))
	}

	s.places.Store(new([]atomic.Pointer[Placement]))
	for i := range pls {
		s.setPlacement(pls[i].ID, &pls[i])
	}
	s.grid = g
	return named, lsn, nil
}
