package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// The mutable store: every Store serves AND mutates its layout. There is one
// write path: Insert and Delete are the same function (mutate) with a
// different journal op, journal replay runs the same apply step the live path
// does, and a fresh layout (writeLayout) is step 4 for every bucket followed
// by a checkpoint. An operation goes through, in order,
//
//  1. locate: the target bucket and its owner disks (grid translation);
//  2. journal: the operation is appended to every owner disk's journal
//     (journal.go) and the appends are fsynced together — only once every
//     one has synced is it committed, and acknowledgeable;
//  3. apply: the in-memory grid file is mutated (splits, merges and directory
//     refinements happen here), split-born buckets get a placement stub on
//     the target's owner disks, and the set of buckets whose pages are now
//     stale falls out. The grid write lock is held, so concurrent readers
//     never observe a half-mutated directory;
//  4. rewrite: every stale live bucket's pages go to *other* extents than the
//     ones it occupies (shadow paging), never over pages a reader may hold,
//     so a concurrent reader holding the old placement still reads intact
//     old bytes — then the placements are swapped. The live path rewrites
//     straight after each apply, replay once per bucket at the end.
//
// Data pages are not fsynced per operation; the journal is the durability
// story. A checkpoint (periodic, and on Close) moves the layout from one LSN
// to the next, and has exactly one commit point — the rename of layout.grd
// (see checkpointLocked).
//
// Pages (DESIGN.md S43). A rewrite takes an extent of exactly the bucket's
// page count from the disk's free pages if there is one, and appends at the
// end of the file otherwise. The extents it supersedes become free once two
// things hold: the checkpoint that no longer names them has committed (so a
// crash never replays onto them), and every reader that could have looked
// their placement up before the swap has left. Readers — a batch
// read from placement lookup to its last pread, a scrub per bucket — register
// in a two-epoch count (pinPages); a checkpoint retires the extents superseded
// since the last one and flips the epoch, and the next rewrite that finds no
// free extent frees them once the old epoch's count is zero. Nothing waits:
// a checkpoint that finds the previous epoch still held leaves its extents
// for the next one. Open takes every page below a disk's end that the
// committed checkpoint does not name as free (newWriter), so the set needs no
// file of its own.
//
// Failure semantics: a journal append failure aborts the operation before
// it is acknowledged. A failed write cuts every journal it reached back to its
// last whole record, so the next acknowledged record never lands behind torn
// bytes, where replay stops reading; a whole record left in some owners'
// journals only is discarded by replay's all-owner-journals commit rule. If
// that cut fails, or an fsync does, the store refuses writes until a reopen
// replays (after a failed fsync the kernel may have dropped the dirty pages,
// and a later fsync could report success over the hole). A page-write failure
// after the journal committed does NOT un-acknowledge the operation. The copy
// it missed is remembered (Placement.missed) until a later rewrite writes it
// whole: reads steer around it and one that lands on it fails with
// errStaleCopy, which the server fails over (r >= 2) or absorbs as degraded —
// the pages there may be another bucket's, or an older version of this one.
// Checkpoints are withheld so the journals keep the redo, and replay rewrites
// every copy on the next open.

// DefaultCheckpointEvery is how many committed mutations a store absorbs
// before checkpointing on its own. SetCheckpointEvery overrides it; zero
// disables automatic checkpoints (Close and Checkpoint still flush).
const DefaultCheckpointEvery = 1024

// WriteCounters are the write path's monotonic counters, surfaced in the
// server's STATS verb and /metrics.
type WriteCounters struct {
	Inserts        int64 `json:"inserts"`         // acknowledged inserts
	Deletes        int64 `json:"deletes"`         // acknowledged deletes that removed a record
	JournalAppends int64 `json:"journal_appends"` // per-owner-journal record appends (fsynced)
	JournalReplays int64 `json:"journal_replays"` // journaled operations re-applied by Open
	BucketSplits   int64 `json:"bucket_splits"`   // bucket splits triggered by inserts
}

// Mutation reports what one Insert or Delete did.
type Mutation struct {
	// Applied reports whether the record set changed: always true for an
	// insert, false for a delete whose key matched no record.
	Applied bool
	// Splits is the number of bucket splits the operation triggered.
	Splits int
	// Stale lists every bucket whose stored pages the operation superseded —
	// the rewritten ones and, after a buddy merge, the retired one. A cache
	// layered above the store hears of them through SetStaleHook.
	Stale []int32
}

// errSimulatedCrash is returned by the crash test hook; the store refuses
// further writes once it fires, modelling a kill -9 at that exact point.
var errSimulatedCrash = errors.New("store: simulated crash")

// writer is the mutable-store state hanging off every Store.
type writer struct {
	// mu serializes every mutation and checkpoint end-to-end. Readers
	// never take it.
	mu sync.Mutex

	// gridMu guards the store's grid file: queries translate under RLock,
	// the apply step of a mutation (grid mutation + page rewrite + placement
	// swap) runs under Lock. The slow part of a write — the journal fsyncs —
	// happens before this lock is taken, so readers are blocked only for the
	// in-memory apply and buffered page writes.
	gridMu sync.RWMutex
	// gridGen counts the operations that created or retired a bucket. It
	// changes only under gridMu's write lock, so a reader holding the read
	// lock gets the generation of the directory it translates against.
	gridGen atomic.Uint64
	// onStale, when set, is told the buckets each mutation superseded before
	// the grid write lock is released (SetStaleHook).
	onStale func(ids ...int32)

	// journals are the per-disk journal handles, opened for append;
	// journalLen is where each one's last whole, synced record ends — what a
	// failed append cuts it back to.
	journals   []*os.File
	journalLen []int64
	writeSites []string // per-disk fault sites for page writes

	nextPage []int64 // per-disk end-of-file page cursor (shadow allocation)
	nextLSN  uint64
	// checkpointLSN is the last journaled operation whose effects the
	// committed checkpoint and the page files capture. Replay skips journal
	// records at or below it, which makes a crash between the checkpoint's
	// rename and its journal truncation harmless. Zero on layouts that never
	// saw a write.
	checkpointLSN uint64

	// Page reuse (see the file comment): superseded holds the extents
	// rewrites and merges left since the last checkpoint that retired any,
	// retired those a checkpoint retired at the last epoch flip, free the
	// reusable ones by disk and size. epoch and readers are the two-epoch
	// reader count: a reader adds itself to readers[epoch&1] (pinPages), so
	// once the epoch has moved on, the other slot counts exactly the readers
	// that may still hold a placement from before the flip.
	superseded, retired []extent
	free                map[extentSize][]int64
	epoch               atomic.Uint64
	readers             [2]atomic.Int64

	pendingOps      int // committed ops since the last checkpoint
	checkpointEvery int

	// keys is rewriteBucket's buffer for the bucket it re-encodes: encodePage
	// copies the keys out, and w.mu (or a writer that has the store to
	// itself) serializes the rewrites.
	keys []float64

	// failed is the first replica copy write (or data fsync) that failed
	// since the last checkpoint; while set, checkpoints are withheld so
	// the journals keep the redo for the stale copies.
	failed error
	// dead is why every later write is refused, forcing recovery through
	// replay: the crash hook fired, a committed operation could not be
	// applied, or a journal could not be synced or cut back after a failed
	// append.
	dead error

	// crash, when non-nil, is consulted at every crash point on the write
	// path (before/after each journal fsync and each page write, and after
	// every step of a checkpoint); returning true simulates a kill -9 there.
	// Test hook.
	crash func() bool

	// applied counts acknowledged operations that changed the record set,
	// indexed by journal op.
	applied                  [journalOpDelete + 1]atomic.Int64
	appends, replays, splits atomic.Int64
}

// extent is the run of pages one copy of a bucket occupies on one disk;
// extentSize is what a rewrite looking for room matches free extents by.
type extent struct {
	extentSize
	page int64
}

type extentSize struct{ disk, pages int }

// newWriter sets up the write path of a store just opened on a committed
// checkpoint at LSN lsn, the journals aside (Open opens them). named has one
// entry per disk and flags every page of the file as it stands that the
// checkpoint's placements name (readCheckpoint): each disk's cursor starts at
// its file's end, and every page below it that no placement names is free —
// nothing names it, and no reader has looked anything up yet.
func newWriter(named [][]bool, lsn uint64) *writer {
	w := &writer{
		checkpointEvery: DefaultCheckpointEvery,
		nextPage:        make([]int64, len(named)),
		writeSites:      make([]string, len(named)),
		checkpointLSN:   lsn,
		nextLSN:         lsn + 1,
		journalLen:      make([]int64, len(named)),
		free:            make(map[extentSize][]int64),
	}
	for d, pages := range named {
		w.writeSites[d] = fault.StoreWriteDiskSite(d)
		w.nextPage[d] = int64(len(pages))
		for p, used := range pages {
			if !used {
				w.addFree(extent{extentSize{d, 1}, int64(p)})
			}
		}
	}
	return w
}

func (w *writer) addFree(x extent) {
	w.free[x.extentSize] = append(w.free[x.extentSize], x.page)
}

// allocPages finds room for pages consecutive pages on disk: a free extent of
// exactly that size if there is one, otherwise the end of the file.
func (w *writer) allocPages(disk, pages int) int64 {
	k := extentSize{disk, pages}
	if len(w.free[k]) == 0 {
		w.reclaim()
	}
	if st := w.free[k]; len(st) > 0 {
		w.free[k] = st[:len(st)-1]
		return st[len(st)-1]
	}
	p := w.nextPage[disk]
	w.nextPage[disk] += int64(pages)
	return p
}

// supersede records the extents of a placement its bucket has left (a
// rewrite moved it, or a merge retired it). A stub has none.
func (w *writer) supersede(pl *Placement) {
	if pl.Pages == 0 {
		return
	}
	for i, d := range pl.OwnerDisks {
		w.superseded = append(w.superseded, extent{extentSize{d, pl.Pages}, pl.OwnerPages[i]})
	}
}

// retireSuperseded is a committed checkpoint's part in page reuse: the
// placements it committed name no superseded extent, so they are retired and
// the epoch flips — unless extents retired at the last flip are still held
// by a reader from before it, in which case the flip, and these extents, wait
// for the next checkpoint (flipping now would count new readers with those
// old ones).
func (w *writer) retireSuperseded() {
	w.reclaim()
	if len(w.retired) > 0 || len(w.superseded) == 0 {
		return
	}
	w.retired, w.superseded = w.superseded, w.retired
	w.epoch.Add(1)
}

// reclaim frees the retired extents once no reader registered before the
// epoch flip that retired them is left.
func (w *writer) reclaim() {
	if len(w.retired) == 0 || w.readers[(w.epoch.Load()+1)&1].Load() != 0 {
		return
	}
	for _, x := range w.retired {
		w.addFree(x)
	}
	w.retired = w.retired[:0]
}

// pinPages registers a reader of page positions: no extent a placement names
// when the reader looks it up afterwards is written again until the reader
// calls unpinPages with the epoch returned. The re-check after the increment
// keeps a reader that raced an epoch flip from counting itself under an epoch
// the writer already considers old.
func (s *Store) pinPages() uint64 {
	w := s.w
	for {
		e := w.epoch.Load()
		w.readers[e&1].Add(1)
		if w.epoch.Load() == e {
			return e
		}
		w.readers[e&1].Add(-1)
	}
}

// unpinPages ends the read pinPages began.
func (s *Store) unpinPages(e uint64) { s.w.readers[e&1].Add(-1) }

// RLockGrid takes the grid translation read lock.
func (s *Store) RLockGrid() { s.w.gridMu.RLock() }

// GridGen returns the grid's generation: it changes whenever a mutation
// splits a bucket off or merges one away. Bucket ids translated under
// RLockGrid cover their query only while the generation read under that same
// lock still stands; a reader that finds another one after fetching them,
// whether the fetch answered or failed, must translate and fetch again: a
// split moves records to a bucket it never asked for, a merge copies them into
// one it also read as it was, and the bucket a merge retired has no placement
// left to fetch.
func (s *Store) GridGen() uint64 { return s.w.gridGen.Load() }

// RUnlockGrid releases RLockGrid.
func (s *Store) RUnlockGrid() { s.w.gridMu.RUnlock() }

// SetStaleHook registers fn to be called with the buckets a mutation
// superseded (Mutation.Stale) while the mutation still holds the grid write
// lock: a cache layered above the store drops them there, so that no reader
// can translate against the new directory and still be handed a bucket's
// pre-split records. Call before handing the store to concurrent writers.
func (s *Store) SetStaleHook(fn func(ids ...int32)) { s.w.onStale = fn }

// SetCheckpointEvery sets how many committed mutations may accumulate
// before the store checkpoints on its own; 0 disables automatic
// checkpoints. Call before handing the store to concurrent writers.
func (s *Store) SetCheckpointEvery(n int) { s.w.checkpointEvery = n }

// WriteCounters returns the write path's counters.
func (s *Store) WriteCounters() WriteCounters {
	w := s.w
	return WriteCounters{
		Inserts:        w.applied[journalOpInsert].Load(),
		Deletes:        w.applied[journalOpDelete].Load(),
		JournalAppends: w.appends.Load(),
		JournalReplays: w.replays.Load(),
		BucketSplits:   w.splits.Load(),
	}
}

// CloseNoCheckpoint releases the files and the directory's lock WITHOUT
// checkpointing, so the journals keep every operation since the last one:
// the crash stand-in the recovery tests and the ingest smoke gate reopen from.
func (s *Store) CloseNoCheckpoint() {
	closeAll(s.w.journals)
	closeAll(s.files)
	s.lock.Close()
}

// crashPoint fires the crash hook, if armed. Once it fires the store is
// dead: every later write is refused.
func (w *writer) crashPoint() error {
	if w.crash != nil && w.crash() {
		w.dead = errSimulatedCrash
		return w.dead
	}
	return nil
}

// Insert adds one record to the layout: journaled to every owner disk of
// the target bucket, applied through the grid file's split machinery, and
// persisted to every replica copy via shadow page rewrites. ctx bounds
// injected stalls only; the journal fsyncs themselves are not cancellable
// (aborting between owner journals would leave a committed-on-some-disks
// record that replay must then disambiguate — simpler to finish).
func (s *Store) Insert(ctx context.Context, key geom.Point) (Mutation, error) {
	return s.mutate(ctx, journalOpInsert, key)
}

// Delete removes one record whose key equals key exactly, by the same path as
// Insert. A key with no matching record is a no-op (Applied=false) and is not
// journaled; should a concurrent delete win the race for the last match after
// the check here, the operation is journaled and then applies as a no-op.
func (s *Store) Delete(ctx context.Context, key geom.Point) (Mutation, error) {
	s.RLockGrid()
	missing := len(s.grid.Lookup(key)) == 0
	s.RUnlockGrid()
	if missing {
		return Mutation{}, nil
	}
	return s.mutate(ctx, journalOpDelete, key)
}

// mutate is the write path, top to bottom, for both operations: locate the
// target bucket and its owners, journal the operation to every owner, apply
// it, rewrite the buckets it made stale, count it.
func (s *Store) mutate(ctx context.Context, op uint8, key geom.Point) (Mutation, error) {
	w := s.w
	if ctx == nil {
		ctx = context.Background()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead != nil {
		return Mutation{}, w.dead
	}
	id, ok := s.grid.BucketAt(key)
	if !ok {
		return Mutation{}, fmt.Errorf("store: key %v is not in the layout's domain", key)
	}
	pl := s.placement(id)
	if pl == nil {
		return Mutation{}, fmt.Errorf("store: bucket %d has no placement", id)
	}
	lsn := w.nextLSN
	w.nextLSN++
	if err := s.journalAppend(ctx, pl.OwnerDisks, lsn, op, key); err != nil {
		return Mutation{}, err
	}

	// Committed. Apply under the grid write lock: directory mutation, page
	// rewrites to other extents, and placement swaps become visible to
	// readers atomically when the lock is released.
	w.gridMu.Lock()
	m, dirty, err := s.apply(op, key, pl.OwnerDisks)
	for i := 0; err == nil && i < len(dirty); i++ {
		err = s.rewriteBucket(ctx, dirty[i])
	}
	if err == nil && w.onStale != nil {
		w.onStale(m.Stale...)
	}
	w.gridMu.Unlock()
	if err != nil {
		// A committed operation failed to apply (simulated crash, or an
		// impossibility): refuse further writes, recover through replay.
		w.dead = err
		return Mutation{}, err
	}
	if m.Applied {
		w.applied[op].Add(1)
	}
	// Best-effort automatic checkpoint: a withheld one just means the
	// journals keep growing until the condition clears or the store restarts.
	w.pendingOps++
	if w.checkpointEvery > 0 && w.pendingOps >= w.checkpointEvery {
		_ = s.checkpointLocked(false)
	}
	return m, nil
}

// apply performs one committed operation on the in-memory state — the grid
// mutation, and a placement stub on the target's owner disks for every bucket
// a split created (the rewrite that follows assigns its pages). It is the only
// caller of the grid file's mutating entry points, shared by the live path and
// by replay, so both derive the same splits and merges from the same journal
// record. It returns what the operation did and the live buckets whose pages
// must be rewritten: dirty is a prefix of m.Stale, and what follows it in
// m.Stale was retired by a buddy merge. A retired bucket's placement goes at
// once and its pages are superseded; a reader that translated before the merge
// finds no placement, and its query translates again (GridGen). Caller holds
// w.mu and, online, gridMu.
func (s *Store) apply(op uint8, key geom.Point, owners []int) (m Mutation, dirty []int32, err error) {
	w := s.w
	switch op {
	case journalOpInsert:
		res, err := s.grid.InsertTracked(gridfile.Record{Key: key})
		if err != nil {
			return Mutation{}, nil, err
		}
		for _, id := range res.Created {
			stub := placementStub(id, owners)
			s.setPlacement(id, &stub)
		}
		if len(res.Created) > 0 {
			w.gridGen.Add(1)
		}
		dirty = res.Dirty()
		m = Mutation{Applied: true, Splits: res.Splits, Stale: dirty}
		w.splits.Add(int64(res.Splits))
	case journalOpDelete:
		res := s.grid.DeleteTracked(key)
		dirty = res.Dirty()
		m = Mutation{Applied: res.Removed, Stale: dirty}
		if res.Merged {
			w.gridGen.Add(1)
			m.Stale = []int32{res.Keep, res.Dead}
			w.supersede(s.placement(res.Dead))
			s.setPlacement(res.Dead, nil)
		}
	}
	return m, dirty, nil
}

// placementStub places a bucket that has no pages yet on its owner disks; the
// rewriteBucket that follows assigns them, OwnerPages with them, before any
// reader can look the bucket up — unless the crash hook kills the write in
// between, after which the store is only closed. supersede passes a stub
// over: it has no pages to give up.
func placementStub(id int32, owners []int) Placement {
	return Placement{ID: id, OwnerDisks: slices.Clone(owners)}
}

// journalAppend appends one operation record to every owner disk's journal,
// then fsyncs the owners' journals together. The operation is committed once
// every one has synced; any failure aborts the (unacknowledged) operation. An
// injected fault fires before anything is written; a failed write cuts the
// journals it reached back to their last whole record, and replay's
// all-owner-journals rule discards a record that is whole in some of them
// only. The crash hook fires before each append and after each fsync, in
// owner order.
func (s *Store) journalAppend(ctx context.Context, owners []int, lsn uint64, op uint8, key geom.Point) error {
	w := s.w
	if s.faults.Enabled() {
		if _, err := s.inject(ctx, fault.SiteStoreWAL); err != nil {
			return fmt.Errorf("store: journal append: %w", err)
		}
	}
	rec := appendJournalRec(make([]byte, 0, journalRecSize(len(key))), lsn, op, key)
	for i, d := range owners {
		if err := w.crashPoint(); err != nil {
			return err
		}
		if _, err := w.journals[d].Write(rec); err != nil {
			err = fmt.Errorf("store: journal append disk %d: %w", d, err)
			for _, d := range owners[:i+1] {
				if terr := w.journals[d].Truncate(w.journalLen[d]); terr != nil {
					w.dead = err
				}
			}
			return err
		}
	}
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i := 1; i < len(owners); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.journals[owners[i]].Sync()
		}(i)
	}
	errs[0] = w.journals[owners[0]].Sync()
	wg.Wait()
	for i, d := range owners {
		if errs[i] != nil {
			w.dead = fmt.Errorf("store: journal fsync disk %d: %w", d, errs[i])
			return w.dead
		}
	}
	for _, d := range owners {
		w.journalLen[d] += int64(len(rec))
		w.appends.Add(1)
		if err := w.crashPoint(); err != nil {
			return err
		}
	}
	return nil
}

// rewriteBucket re-encodes one bucket's records from the grid file and
// writes them to other extents on every owner disk (allocPages), then swaps
// the placement and supersedes the old one. The records are copied out in one
// piece, into the writer's key buffer.
// Page-write failures on individual copies are absorbed: the copy is marked
// missed in the new placement, the journal keeps the redo and checkpoints are
// withheld; only a simulated crash propagates. Caller holds w.mu and, online,
// gridMu.
func (s *Store) rewriteBucket(ctx context.Context, id int32) error {
	w := s.w
	old := s.placement(id)
	if old == nil {
		return fmt.Errorf("store: rewrite of unplaced bucket %d", id)
	}
	dims := s.manifest.Dims
	pageBytes := s.manifest.PageBytes
	w.keys = s.grid.AppendBucketKeys(w.keys[:0], id)
	keys := w.keys
	nrec := len(keys) / dims
	perPage := recordsPerPage(pageBytes, dims)
	npages := pagesFor(nrec, perPage)

	newPages := make([]int64, len(old.OwnerDisks))
	for i, d := range old.OwnerDisks {
		newPages[i] = w.allocPages(d, npages)
	}

	bp := getBuf(pageBytes)
	defer putBuf(bp)
	page := *bp
	var missed []int
	for p := 0; p < npages; p++ {
		encodePage(page, id, keys[p*perPage*dims:min((p+1)*perPage, nrec)*dims], dims)
		for i, d := range old.OwnerDisks {
			if slices.Contains(missed, d) {
				continue
			}
			err := s.writePage(ctx, d, page, (newPages[i]+int64(p))*int64(pageBytes))
			if errors.Is(err, errSimulatedCrash) {
				return err
			}
			if err != nil {
				// This copy is stale; leave the rest of it unwritten,
				// withhold checkpoints so the journal keeps its redo.
				missed = append(missed, d)
				if w.failed == nil {
					w.failed = fmt.Errorf("bucket %d on disk %d: %w", id, d, err)
				}
			}
		}
	}

	pl := *old
	pl.OwnerPages = newPages
	pl.Disk = pl.OwnerDisks[0]
	pl.Page = newPages[0]
	pl.Pages = npages
	pl.Recs = nrec
	pl.missed = missed
	s.setPlacement(id, &pl)
	w.supersede(old)
	return nil
}

// writePage performs one positioned page write, consulting the failpoint
// registry (fault.SiteStoreWrite and the per-disk site) and the crash hook.
func (s *Store) writePage(ctx context.Context, disk int, buf []byte, off int64) error {
	w := s.w
	if s.faults.Enabled() {
		if _, err := s.inject(ctx, fault.SiteStoreWrite, w.writeSites[disk]); err != nil {
			return err
		}
	}
	if err := w.crashPoint(); err != nil {
		return err
	}
	if _, err := s.files[disk].WriteAt(buf, off); err != nil {
		return err
	}
	return w.crashPoint()
}

// replay re-applies journaled operations after a crash. An operation is
// committed — and therefore replayed — iff a valid record for its LSN is
// present in the journal of EVERY disk owning its target bucket (located
// against the deterministically replayed grid state). Anything less was
// never acknowledged and is discarded. Records at or below the checkpoint
// LSN are already in the layout — a checkpoint that was killed after its
// commit point but before it truncated the journals leaves them behind — and
// are skipped. Replay finishes with a forced checkpoint, so a
// successfully opened store is always clean.
func (s *Store) replay() error {
	w := s.w
	dims := s.manifest.Dims
	type pendOp struct {
		rec  journalRec
		have []bool
		bad  bool
	}
	pending := make(map[uint64]*pendOp)
	journalBytes := false
	for d := 0; d < s.manifest.Disks; d++ {
		data, err := os.ReadFile(filepath.Join(s.dir, JournalFileName(d)))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if len(data) > 0 {
			journalBytes = true
		}
		for _, r := range readJournal(data, dims) {
			if r.lsn >= w.nextLSN {
				w.nextLSN = r.lsn + 1
			}
			if r.lsn <= w.checkpointLSN {
				continue
			}
			p := pending[r.lsn]
			if p == nil {
				p = &pendOp{rec: r, have: make([]bool, s.manifest.Disks)}
				pending[r.lsn] = p
			} else if p.rec.op != r.op || !keysEqual(p.rec.key, r.key) {
				p.bad = true // same LSN, different payloads: never committed
			}
			p.have[d] = true
		}
	}
	if !journalBytes {
		return nil
	}

	lsns := make([]uint64, 0, len(pending))
	for lsn := range pending {
		lsns = append(lsns, lsn)
	}
	slices.Sort(lsns)

	dirty := make(map[int32]bool)
	for _, lsn := range lsns {
		p := pending[lsn]
		if p.bad {
			continue
		}
		key := geom.Point(p.rec.key)
		id, ok := s.grid.BucketAt(key)
		if !ok {
			continue // key no longer plausible: cannot have been committed
		}
		pl := s.placement(id)
		if pl == nil || slices.ContainsFunc(pl.OwnerDisks, func(d int) bool { return !p.have[d] }) {
			continue // some owner's journal lacks the record: never committed
		}
		m, live, err := s.apply(p.rec.op, key, pl.OwnerDisks)
		if err != nil {
			return err
		}
		for _, id := range live {
			dirty[id] = true
		}
		// A retired bucket is not rewritten: apply has dropped its placement.
		for _, id := range m.Stale[len(live):] {
			delete(dirty, id)
		}
		if m.Applied {
			w.replays.Add(1)
		}
	}

	ids := make([]int32, 0, len(dirty))
	for id := range dirty {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := s.rewriteBucket(context.Background(), id); err != nil {
			return err
		}
	}
	return s.checkpointLocked(true)
}

// Checkpoint makes every committed mutation durable in the data files,
// commits a checkpoint file that captures them, and truncates the journals.
// It is withheld (with an error) while any replica copy write has failed
// since the last checkpoint — truncating the journals then would drop the
// only redo for the stale copies.
func (s *Store) Checkpoint() error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	return s.checkpointLocked(true)
}

// checkpointLocked is Checkpoint with w.mu held; force checkpoints even
// when no operations are pending (used by replay to truncate stale
// journals and refresh the checkpoint, and by writeLayout, whose checkpoint
// zero is what makes a directory of page files a layout).
//
// A checkpoint moves the layout from the committed LSN a to b, the last LSN
// handed out, and the rename of layout.grd is the only step that does so: the
// grid, the placements and the checkpoint LSN are one file. Before it, the
// fsynced data pages are durable but nothing refers to them: reopening removes
// the temporary and replays the journals from a. After it, all that is left
// to do is truncate the journals; a kill there leaves records at or below b,
// which replay skips.
func (s *Store) checkpointLocked(force bool) error {
	w := s.w
	if w.pendingOps == 0 && !force {
		return nil
	}
	if w.dead != nil {
		return w.dead
	}
	if w.failed != nil {
		return fmt.Errorf("store: checkpoint withheld: a replica copy write failed since the last checkpoint (journals retained for replay): %w", w.failed)
	}
	for d, fh := range s.files {
		if err := fh.Sync(); err != nil {
			w.failed = fmt.Errorf("store: checkpoint fsync disk %d: %w", d, err)
			return w.failed
		}
	}
	if err := w.crashPoint(); err != nil {
		return err
	}

	live, err := s.livePlacements()
	if err != nil {
		return err
	}
	lsn := w.nextLSN - 1
	if err := atomicWriteFile(s.dir, "layout.grd", func(fh io.Writer) error {
		return writeCheckpoint(fh, s.grid, s.manifest, lsn, live)
	}); err != nil {
		return err
	}
	w.checkpointLSN = lsn
	w.pendingOps = 0
	w.retireSuperseded()
	if err := w.crashPoint(); err != nil {
		return err
	}

	for d, j := range w.journals {
		if err := j.Truncate(0); err != nil {
			return fmt.Errorf("store: truncating journal %d: %w", d, err)
		}
		w.journalLen[d] = 0
		if err := j.Sync(); err != nil {
			return fmt.Errorf("store: syncing journal %d: %w", d, err)
		}
		if err := w.crashPoint(); err != nil {
			return err
		}
	}
	return nil
}

// removeStrays deletes what a layout directory must not hand to its next
// opener: atomicWriteFile's temporaries — what a kill inside a checkpoint can
// strand — and, for a fresh build, which must replay nothing, the journals.
func removeStrays(dir string, journals bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		n := e.Name()
		tmp := strings.HasPrefix(n, ".") && strings.HasSuffix(n, ".tmp")
		wal := journals && strings.HasPrefix(n, "journal") && strings.HasSuffix(n, ".wal")
		if tmp || wal {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// atomicWriteFile has write fill name under dir via a synced temp file and
// rename, then syncs the directory so the rename itself is durable.
func atomicWriteFile(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, "."+name+".tmp")
	fh, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(fh); err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	dh, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = dh.Sync()
	if cerr := dh.Close(); err == nil {
		err = cerr
	}
	return err
}

// keysEqual compares two keys bit for bit (NaNs and signed zeros included).
func keysEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return floatBits(x) == floatBits(y) })
}
