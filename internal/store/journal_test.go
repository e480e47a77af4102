package store

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// crashPageBytes splits the crash layout's buckets across pages: a 512-byte
// page holds 31 2-D keys and most of its buckets hold some forty, so their
// rewrites write two pages a copy and a crash point falls between them.
const crashPageBytes = 512

// buildCrashLayout lays out a small uniform dataset with the given allocator
// at replication r, in crashPageBytes pages, so most buckets span two pages
// and inserts split.
// One bucket is thinned to its last two records before the layout is
// written, so that crashOps can empty it into a buddy merge in a few
// operations instead of some forty, each with its crash points.
func buildCrashLayout(t *testing.T, alloc core.Allocator, disks, r int) (string, *gridfile.File) {
	t.Helper()
	f, err := synth.Uniform2D(300, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	thin := mergeDeletes(t, f, nil)
	for _, key := range thin[:len(thin)-2] {
		if res := f.DeleteTracked(key); !res.Removed || res.Merged {
			t.Fatalf("thinning bucket %d: %+v", res.Target, res)
		}
	}
	g := core.FromGridFile(f)
	a, err := alloc.Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, a)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteReplicated(dir, f, rm, crashPageBytes); err != nil {
		t.Fatal(err)
	}
	return dir, f
}

// mergeDeletes plays ops on copies of f, which is left as it is, and returns
// the shortest run of deletes that empties one bucket, in its record order,
// up to the delete at which a buddy merge retires one of the pair.
func mergeDeletes(t *testing.T, f *gridfile.File, ops []crashOp) []geom.Point {
	t.Helper()
	var raw bytes.Buffer
	if _, err := f.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	var best []geom.Point
	for _, v := range f.Buckets() {
		g, err := gridfile.Read(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.del {
				g.Delete(op.key)
			} else if err := g.Insert(gridfile.Record{Key: op.key}); err != nil {
				t.Fatal(err)
			}
		}
		var keys []geom.Point
		for _, k := range keyRows(g.AppendBucketKeys(nil, v.ID)) {
			keys = append(keys, geom.Point{k[0], k[1]})
		}
		for i, key := range keys {
			if g.DeleteTracked(key).Merged {
				if best == nil || i+1 < len(best) {
					best = keys[:i+1]
				}
				break
			}
		}
	}
	if best == nil {
		t.Fatal("emptying no bucket merges it with a buddy")
	}
	return best
}

// copyLayout clones a (flat) layout directory so each crash trial starts
// from the identical on-disk state.
func copyLayout(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// openCommitted opens the layout the last checkpoint committed in dir, as it
// stands: a copy of dir without its journals, so Open has nothing to replay.
func openCommitted(t *testing.T, dir string) (*Store, error) {
	t.Helper()
	cp := copyLayout(t, dir)
	wals, err := filepath.Glob(filepath.Join(cp, "journal*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wal := range wals {
		if err := os.Remove(wal); err != nil {
			t.Fatal(err)
		}
	}
	return Open(cp)
}

// crashOp is one step of the mutation sequence driven against the store.
type crashOp struct {
	del bool
	key geom.Point
}

// crashOps builds the trial sequence on f's records: a run of inserts with
// fresh keys, deletes of alternating inserted keys, then the deletes that
// empty one bucket until a buddy merge retires one of the pair
// (mergeDeletes), so recovery is checked for both op types, for
// delete-after-insert interleavings and inside a merge.
func crashOps(t *testing.T, f *gridfile.File) []crashOp {
	t.Helper()
	keys := randKeys(f.Domain(), 8, 33)
	ops := make([]crashOp, 0, len(keys)+len(keys)/2)
	for _, k := range keys {
		ops = append(ops, crashOp{key: k})
	}
	for i := 1; i < len(keys); i += 2 {
		ops = append(ops, crashOp{del: true, key: keys[i]})
	}
	for _, key := range mergeDeletes(t, f, ops) {
		ops = append(ops, crashOp{del: true, key: key})
	}
	return ops
}

// applyUntilCrash runs the sequence, then an explicit checkpoint, against an
// open writable store whose crash hook is already armed. It returns the index
// of the op that observed the simulated crash; len(ops) means every op was
// acknowledged (a crash, if any, then fell inside the final checkpoint). A
// crash inside an automatic checkpoint is observed by the following op, which
// the dead store refuses before journaling it.
func applyUntilCrash(t *testing.T, s *Store, ops []crashOp) int {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.del {
			_, err = s.Delete(context.Background(), op.key)
		} else {
			_, err = s.Insert(context.Background(), op.key)
		}
		if err != nil {
			if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("op %d failed with a non-crash error: %v", i, err)
			}
			return i
		}
	}
	if err := s.Checkpoint(); err != nil && !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("final checkpoint failed with a non-crash error: %v", err)
	}
	return len(ops)
}

// crashCheckpointEvery makes automatic checkpoints fall inside crashOps'
// operations (after every fifth), so the crash points of a checkpoint are
// traversed between journaled operations as well as after them.
const crashCheckpointEvery = 5

// TestCrashRecoveryAtEveryFailpoint is the recovery property test: for a
// matrix of allocator families and replication factors, the write path is
// killed at EVERY crash point — before each owner journal's append and after
// its fsync,
// before/after each replica page write, and after every step of a checkpoint
// (data fsyncs, the checkpoint file's rename, each journal truncate) — and the
// store reopened. The property: every acknowledged operation is durable
// exactly once, no never-attempted operation appears, the single in-flight op
// is either fully applied or fully absent (never half), and every bucket's
// replica copies come back checksum-valid and byte-identical. Before the
// recovery, the layout the last committed checkpoint describes must read back
// whole as it stands — pages are reused between checkpoints (the dry run
// checks some are), but never one that checkpoint still names.
func TestCrashRecoveryAtEveryFailpoint(t *testing.T) {
	allocs := scrubAllocators(t)
	if testing.Short() {
		// The full matrix is ~12 configs x ~200 crash trials; -short keeps
		// one weight-based and one index-based family.
		short := map[string]core.Allocator{"minimax": allocs["minimax"], "DM/D": allocs["DM/D"]}
		allocs = short
	}
	for name, alloc := range allocs {
		for _, r := range []int{1, 2} {
			t.Run(name+"/r="+string(rune('0'+r)), func(t *testing.T) {
				t.Parallel()
				testCrashRecovery(t, alloc, r)
			})
		}
	}
}

func testCrashRecovery(t *testing.T, alloc core.Allocator, r int) {
	const disks = 3
	base, f := buildCrashLayout(t, alloc, disks, r)
	ops := crashOps(t, f)

	// Dry run: count the crash points the full sequence passes through, and
	// the checkpoint LSNs they were reached under, and check that some
	// rewrite went into a reused page and some rewritten copy spans pages.
	total := 0
	{
		dir := copyLayout(t, base)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCheckpointEvery(crashCheckpointEvery)
		lsns := map[uint64]bool{}
		s.w.crash = func() bool { total++; lsns[s.w.checkpointLSN] = true; return false }
		grown, written, merges, widest := sum(s.w.nextPage), make([]int64, disks), 0, 0
		for i, op := range ops {
			mutate := s.Insert
			if op.del {
				mutate = s.Delete
			}
			m, err := mutate(context.Background(), op.key)
			if err != nil {
				t.Fatalf("dry run op %d: %v", i, err)
			}
			if op.del && len(m.Stale) == 2 { // the bucket kept and the one merged away
				merges++
			}
			widest = max(widest, rewrittenPages(s, m, written))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.w.crash = nil
		grown = sum(s.w.nextPage) - grown
		s.Close()
		if len(lsns) < 4 {
			t.Fatalf("crash points seen under checkpoint LSNs %v: want the base, two automatic checkpoints and the final one", lsns)
		}
		if grown >= sum(written) {
			t.Fatalf("files grew by %d pages for %d rewritten: no write went into a reused page", grown, sum(written))
		}
		if merges == 0 {
			t.Fatal("the sequence merged no buckets: no crash point fell inside a merge")
		}
		if widest < 2 {
			t.Fatal("every rewritten copy is one page: no crash point fell between two pages of a copy")
		}
		t.Logf("%d crash points over %d operations, %d of them merges; rewritten copies span up to %d pages",
			total, len(ops), merges, widest)
	}

	for k := 1; k <= total; k++ {
		dir := copyLayout(t, base)
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		s.SetCheckpointEvery(crashCheckpointEvery)
		calls := 0
		s.w.crash = func() bool { calls++; return calls == k }
		crashed := applyUntilCrash(t, s, ops)
		if calls < k {
			t.Fatalf("k=%d: hook never fired (%d calls)", k, calls)
		}
		s.CloseNoCheckpoint() // kill -9 at crash point k

		committed, err := openCommitted(t, dir)
		if err != nil {
			t.Fatalf("k=%d: the committed layout: %v", k, err)
		}
		verifyStoreMatchesGrid(t, committed, committed.Grid())
		committed.Close()

		// Recovery: reopen replays the journals.
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		grid := s2.Grid()

		// Expected visibility per key. Ops before `crashed` were acked; the
		// op at `crashed` is in flight (either outcome is legal, but never a
		// torn half-state — the full-store verification below catches those);
		// ops after were never attempted.
		for i, op := range ops {
			if i >= crashed {
				break
			}
			// Was this key's final acked state inserted or deleted?
			inserted := false
			ambiguous := false
			for j, other := range ops {
				if !samePoint(other.key, op.key) {
					continue
				}
				switch {
				case j < crashed:
					inserted = !other.del
				case j == crashed:
					ambiguous = true // in-flight op targets this key
				}
			}
			if ambiguous {
				continue
			}
			got := len(grid.Lookup(op.key))
			if inserted && got != 1 {
				t.Fatalf("k=%d: acked insert %v stored %d times after recovery", k, op.key, got)
			}
			if !inserted && got != 0 {
				t.Fatalf("k=%d: acked delete of %v undone after recovery", k, op.key)
			}
		}
		if crashed < len(ops) {
			// The in-flight op is all-or-nothing: for an insert the key is
			// stored at most once; verifyStoreMatchesGrid proves whatever
			// state won is consistent across grid, store and replicas.
			if op := ops[crashed]; !op.del {
				if n := len(grid.Lookup(op.key)); n > 1 {
					t.Fatalf("k=%d: in-flight insert applied %d times", k, n)
				}
			}
		}
		verifyStoreMatchesGrid(t, s2, grid)
		s2.Close()
	}
}

func samePoint(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJournalFaultSite arms fault.SiteStoreWAL on an r=2 layout so that the
// second of three inserts fails: it is not acknowledged, nothing of it reaches
// any journal or comes back on replay, and the other two are durable. The site
// is evaluated once per operation, before any owner journal is written; each
// record that commits is appended to both owners' journals.
func TestJournalFaultSite(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointEvery(0)
	reg := fault.NewRegistry(1)
	if err := reg.SetSpec("store.wal:err:n=2"); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(reg)
	keys := randKeys(f.Domain(), 3, 23)
	for i, key := range keys {
		_, err := s.Insert(context.Background(), key)
		if i == 1 && !errors.Is(err, fault.ErrInjected) || i != 1 && err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if got := s.WriteCounters().JournalAppends; got != 2*2 {
		t.Fatalf("journal appends %d, want 4 (2 records, each to its 2 owners' journals)", got)
	}
	s.CloseNoCheckpoint()

	held := 0
	for d := 0; d < 4; d++ {
		data, err := os.ReadFile(filepath.Join(dir, JournalFileName(d)))
		if err != nil {
			t.Fatal(err)
		}
		recs := readJournal(data, 2)
		if len(recs)*journalRecSize(2) != len(data) {
			t.Fatalf("journal %d holds %d bytes, %d whole records", d, len(data), len(recs))
		}
		for _, r := range recs {
			if !samePoint(r.key, keys[0]) && !samePoint(r.key, keys[2]) {
				t.Fatalf("journal %d holds %v, which is not the 1st or the 3rd insert", d, r.key)
			}
		}
		held += len(recs)
	}
	if held != 2*2 {
		t.Fatalf("the journals hold %d records, want 4", held)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WriteCounters().JournalReplays; got != 2 {
		t.Fatalf("replayed %d ops, want 2", got)
	}
	for i, key := range keys {
		if got, want := len(s2.Grid().Lookup(key)), 1-i%2; got != want {
			t.Fatalf("insert %d stored %d times after replay, want %d", i, got, want)
		}
	}
	verifyStoreMatchesGrid(t, s2, s2.Grid())
}
