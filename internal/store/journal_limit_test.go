//go:build linux

package store

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedJournalAppendKeepsLaterWrites is the regression test for a journal
// append that fails part-way: under RLIMIT_FSIZE a record's write gets half of
// it out and then fails with EFBIG. The insert is not acknowledged, and the
// store went on taking writes — but the next acknowledged record landed behind
// the torn half, where replay stops reading that journal, so by the
// all-owner-journals rule it and every later one on that disk were lost on
// reopen. Now the journal is cut back to its last whole record first.
// The limit is process-wide, so the writes run in a child process (this test
// binary, re-run on this test alone) and this one checks what it left: three
// inserts of one key, A acknowledged, B cut short, C acknowledged, then a
// close without a checkpoint. Replay must store the key twice.
func TestFailedJournalAppendKeepsLaterWrites(t *testing.T) {
	const childEnv = "STORE_TEST_FSIZE_CHILD_DIR"
	if dir := os.Getenv(childEnv); dir != "" {
		insertPastFileSizeLimit(t, dir)
		return
	}
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedJournalAppendKeepsLaterWrites$", "-test.count=1")
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	s, err := OpenWritable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.WriteCounters().JournalReplays; got != 2 {
		t.Errorf("replayed %d ops, want 2 (A and C)", got)
	}
	if got := len(s.Grid().Lookup(randKeys(f.Domain(), 1, 29)[0])); got != 2 {
		t.Errorf("the key is stored %d times after replay, want 2 (A and C)", got)
	}
	verifyStoreMatchesGrid(t, s, s.Grid())
}

// insertPastFileSizeLimit is the child's part: insert A, lower the file size
// limit to half a record past the end of A's journals and insert B, which must
// fail, restore the limit, insert C, and close without a checkpoint.
func insertPastFileSizeLimit(t *testing.T, dir string) {
	s, err := OpenWritable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointEvery(0)
	key := randKeys(s.Grid().Domain(), 1, 29)[0]
	if _, err := s.Insert(context.Background(), key); err != nil {
		t.Fatalf("A: %v", err)
	}
	var end int64 // A's owner journals all end here; the others are empty
	for d := 0; d < s.Manifest().Disks; d++ {
		st, err := os.Stat(filepath.Join(dir, JournalFileName(d)))
		if err != nil {
			t.Fatal(err)
		}
		end = max(end, st.Size())
	}
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	lowered := limit
	lowered.Cur = uint64(end) + uint64(journalRecSize(len(key))/2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Fatal(err)
	}
	_, errB := s.Insert(context.Background(), key)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errB, syscall.EFBIG) {
		t.Fatalf("B past the file size limit: %v, want EFBIG", errB)
	}
	if _, err := s.Insert(context.Background(), key); err != nil {
		t.Fatalf("C: %v", err)
	}
	s.CloseNoCheckpoint()
}
