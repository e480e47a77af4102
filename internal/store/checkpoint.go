package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pgridfile/internal/gridfile"
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

// writeCheckpoint encodes g and m's geometry, checkpoint LSN and placements,
// which are g's live buckets in Buckets() order, as the checkpoint file.
func writeCheckpoint(w io.Writer, g *gridfile.File, m *Manifest) error {
	if _, err := g.WriteTo(w); err != nil {
		return err
	}
	le := binary.LittleEndian
	b := make([]byte, 0, checkpointHeaderBytes+len(m.Buckets)*m.Replicas*checkpointCopyBytes)
	b = append(b, checkpointMagic...)
	b = le.AppendUint32(b, pageFormat)
	for _, v := range []uint64{uint64(m.Disks), uint64(m.PageBytes), uint64(m.Replicas), m.CheckpointLSN} {
		b = le.AppendUint64(b, v)
	}
	for _, pl := range m.Buckets {
		for i, d := range pl.OwnerDisks {
			b = le.AppendUint32(b, uint32(d))
			b = le.AppendUint64(b, uint64(pl.OwnerPages[i]))
		}
	}
	_, err := w.Write(b)
	return err
}

// openCheckpoint opens dir's disk files under the checkpoint file read from r
// and sets up the write path over them, journals aside (split from Open so
// FuzzManifest can skip the file write).
func openCheckpoint(dir string, r *bufio.Reader) (*Store, error) {
	s := &Store{dir: dir, now: time.Now}
	named, err := s.readCheckpoint(r)
	if err != nil {
		closeAll(s.files)
		return nil, err
	}
	s.w = newWriter(&s.manifest, named)
	return s, nil
}

// readCheckpoint decodes the checkpoint file into s, opening the disk files it
// names on the way. Every count is checked before it sizes anything: the grid
// section by gridfile.Read, the disk count by opening the files one by one,
// the replica count against the disks. A placement must name exactly Replicas
// distinct owner disks, each copy lying wholly inside its file on pages no
// other copy names, so whatever passes can be handed to the read path without
// a bounds check, and a rewrite never lands on a page a live copy holds. It
// returns which pages of each disk file the placements name, one flag per page
// of the file as it stands, for the write path's free pages (newWriter).
func (s *Store) readCheckpoint(r *bufio.Reader) ([][]bool, error) {
	// gridfile.Read reads no further than the grid section from a
	// *bufio.Reader, so the header follows in r.
	g, err := gridfile.Read(r)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint grid section: %w", err)
	}
	var h [checkpointHeaderBytes]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("store: checkpoint header: %w", err)
	}
	le := binary.LittleEndian
	if magic := string(h[:4]); magic != checkpointMagic {
		return nil, errVintage(fmt.Sprintf("checkpoint header magic %q", magic))
	}
	if format := le.Uint32(h[4:]); format != pageFormat {
		return nil, errVintage(fmt.Sprintf("page format %d", format))
	}
	disks, pageBytes, replicas := le.Uint64(h[8:]), le.Uint64(h[16:]), le.Uint64(h[24:])
	dims := g.Dims()
	if disks < 1 || disks > math.MaxInt32 || replicas < 1 || replicas > disks ||
		pageBytes > math.MaxInt32 || pageBytes <= pageHeaderBytes || recordsPerPage(int(pageBytes), dims) < 1 {
		return nil, fmt.Errorf("store: implausible checkpoint header (disks=%d replicas=%d page=%d, %d-D records)",
			disks, replicas, pageBytes, dims)
	}
	s.manifest = Manifest{Disks: int(disks), Dims: dims, PageBytes: int(pageBytes), Replicas: int(replicas),
		CheckpointLSN: le.Uint64(h[32:])}

	// The handles are opened one by one rather than into a slice sized from
	// the header, so a hostile disk count fails on its first missing file
	// instead of allocating.
	for d := 0; d < s.manifest.Disks; d++ {
		fh, err := os.OpenFile(filepath.Join(s.dir, DiskFileName(d)), os.O_RDWR, 0)
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, fh)
	}
	sizes, err := s.DiskSizes()
	if err != nil {
		return nil, err
	}
	named := make([][]bool, len(sizes))
	for d, n := range sizes {
		named[d] = make([]bool, n)
	}

	views := g.Buckets()
	nr := s.manifest.Replicas
	pls := make([]Placement, len(views)) // one allocation backs every placement
	owners, firsts := make([]int, len(views)*nr), make([]int64, len(views)*nr)
	perPage := recordsPerPage(s.manifest.PageBytes, dims)
	var rec [checkpointCopyBytes]byte
	for i, v := range views {
		pl := &pls[i]
		pl.ID, pl.Recs, pl.Pages = v.ID, v.Records, pagesFor(v.Records, perPage)
		pl.OwnerDisks, pl.OwnerPages = owners[i*nr:(i+1)*nr:(i+1)*nr], firsts[i*nr:(i+1)*nr:(i+1)*nr]
		for c := range nr {
			if _, err := io.ReadFull(r, rec[:]); err != nil {
				return nil, fmt.Errorf("store: checkpoint placement of bucket %d: %w", v.ID, err)
			}
			d, pg := le.Uint32(rec[:]), le.Uint64(rec[4:])
			if uint64(d) >= disks {
				return nil, fmt.Errorf("store: bucket %d on disk %d of %d", v.ID, d, s.manifest.Disks)
			}
			if slices.Contains(pl.OwnerDisks[:c], int(d)) {
				return nil, fmt.Errorf("store: bucket %d owns disk %d twice", v.ID, d)
			}
			// The copy's pages must lie wholly inside the file; pl.Pages is
			// bounded by the grid's record count, so nothing overflows.
			if n := int64(pl.Pages); sizes[d] < n || pg > uint64(sizes[d]-n) {
				return nil, fmt.Errorf("store: bucket %d pages %d+%d lie outside disk %d (%d pages)",
					v.ID, pg, pl.Pages, d, sizes[d])
			}
			for p := range int64(pl.Pages) {
				if named[d][int64(pg)+p] {
					return nil, fmt.Errorf("store: bucket %d names page %d of disk %d, which another copy holds",
						v.ID, int64(pg)+p, d)
				}
				named[d][int64(pg)+p] = true
			}
			pl.OwnerDisks[c], pl.OwnerPages[c] = int(d), int64(pg)
		}
		pl.Disk, pl.Page = pl.OwnerDisks[0], pl.OwnerPages[0]
	}
	if _, err := r.ReadByte(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("trailing bytes after %d placements", len(pls))
		}
		return nil, fmt.Errorf("store: checkpoint: %w", err)
	}

	t := newPlaceTable(views)
	for i := range pls {
		(*t)[pls[i].ID].Store(&pls[i])
	}
	s.places.Store(t)
	s.manifest.Buckets = pls
	s.grid = g
	return named, nil
}
