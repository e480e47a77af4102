package store

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// ScrubStats summarizes one scrub pass over a layout.
type ScrubStats struct {
	Pages    int64 // page copies verified
	Corrupt  int64 // page copies that failed verification
	Repaired int64 // corrupt copies rewritten from an intact replica and re-verified
}

// Scrub verifies every page copy of every bucket the way a verifying read
// does (checkPage: its stored CRC-32C, its bucket id, a plausible count) and,
// where a copy is corrupt but another owner holds an intact one, rewrites
// the damaged pages from the good copy in place — the repair path that
// makes r >= 2 replication worth its write amplification. It is
// the background-integrity analogue of the read-time verify flag: reads
// catch corruption on the pages queries happen to touch, the scrubber
// sweeps the rest.
//
// Buckets are visited in (primary disk, primary page) order as of the start
// of the pass — one sequential sweep per disk file, whatever order the layout
// was written or since rewritten in; pause, when positive, is slept between
// buckets so a background scrub stays low-priority next to live queries.
// Each bucket's placement is looked up again when its turn comes and pinned
// (pinPages) while it is scanned: the pages a placement named at the start of
// the pass may since hold another bucket. Repairs go through the store's own
// disk handles. A copy that
// missed its last write (errStaleCopy) is neither verified nor repaired from;
// replay rewrites it. Scrub reads the disk files directly, bypassing the
// failpoint registry: it verifies the real bytes on disk, not the fault model.
// Concurrent readers are safe: pages are
// fixed-size and repair rewrites a page with its own correct contents, so
// a racing read sees either the torn page (and fails verification or
// header validation the way it already would) or the repaired one.
//
// A copy that cannot be read at all (truncated or missing file regions)
// counts as corrupt in full and is repaired the same way, which also heals
// a disk file that was cut short under an open store (Open itself refuses a
// layout whose files are shorter than its manifest says). Corrupt pages with
// no intact sibling (r=1, or all copies damaged) are counted but left in
// place.
func (s *Store) Scrub(ctx context.Context, pause time.Duration) (st ScrubStats, err error) {
	var pls []*Placement
	t := *s.places.Load()
	for id := range t {
		if pl := t[id].Load(); pl != nil {
			pls = append(pls, pl)
		}
	}
	slices.SortFunc(pls, cmpDiskPage)

	// Every disk a repair was written to is synced in this deferred block,
	// so that EVERY exit path — completion, context cancellation between
	// buckets or during a pause, a failed repair write — flushes whatever
	// repairs were already written. A cancelled pass must not leave its
	// repairs sitting unsynced in the page cache, where a crash would
	// silently undo them.
	repaired := make([]bool, len(s.files))
	defer func() {
		for d, ok := range repaired {
			if !ok {
				continue
			}
			if serr := s.files[d].Sync(); serr != nil && err == nil {
				err = serr
			}
		}
	}()

	pageBytes := s.manifest.PageBytes
	buf := make([]byte, pageBytes)
	good := make([]byte, pageBytes)

	// scanBucket verifies and repairs one bucket's copies.
	scanBucket := func(pl *Placement) error {
		// bad[p] lists the owner indices whose copy of page p failed.
		var bad map[int][]int
		for i, d := range pl.OwnerDisks {
			if slices.Contains(pl.missed, d) {
				continue
			}
			for p := 0; p < pl.Pages; p++ {
				st.Pages++
				if s.scrubReadPage(d, pl.OwnerPages[i]+int64(p), buf, pl.ID, p) {
					continue
				}
				st.Corrupt++
				if bad == nil {
					bad = make(map[int][]int)
				}
				bad[p] = append(bad[p], i)
			}
		}
		for p, owners := range bad {
			// Find an intact sibling copy of this page.
			src := -1
			for i, d := range pl.OwnerDisks {
				if slices.Contains(owners, i) || slices.Contains(pl.missed, d) {
					continue
				}
				if s.scrubReadPage(d, pl.OwnerPages[i]+int64(p), good, pl.ID, p) {
					src = i
					break
				}
			}
			if src < 0 {
				continue // no intact copy to repair from
			}
			for _, i := range owners {
				d := pl.OwnerDisks[i]
				repaired[d] = true
				off := (pl.OwnerPages[i] + int64(p)) * int64(pageBytes)
				if _, err := s.files[d].WriteAt(good, off); err != nil {
					return fmt.Errorf("store: repairing bucket %d page %d on disk %d: %w", pl.ID, p, d, err)
				}
				if s.scrubReadPage(d, pl.OwnerPages[i]+int64(p), buf, pl.ID, p) {
					st.Repaired++
				}
			}
		}
		return nil
	}

	for _, at := range pls {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		e := s.pinPages()
		if pl := s.placement(at.ID); pl != nil {
			err = scanBucket(pl)
		}
		s.unpinPages(e)
		if err != nil {
			return st, err
		}
		if pause > 0 {
			t := time.NewTimer(pause)
			select {
			case <-ctx.Done():
				t.Stop()
				return st, ctx.Err()
			case <-t.C:
			}
		}
	}
	return st, nil
}

// scrubReadPage reads page p of bucket id's copy directly from its disk file,
// at file page page, and reports whether it is intact: readable, and passing
// the read path's checkPage with the checksum verified — so a valid page of
// another bucket is as corrupt here as a flipped bit. Short or failed reads
// report false (the copy is unusable as-is).
func (s *Store) scrubReadPage(disk int, page int64, buf []byte, id int32, p int) bool {
	if _, err := s.files[disk].ReadAt(buf, page*int64(s.manifest.PageBytes)); err != nil {
		return false
	}
	_, err := s.checkPage(buf, id, p, true)
	return err == nil
}
