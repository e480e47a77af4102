package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// ingestReport is the JSON document runIngest emits: the crash/replay smoke
// evidence TestIngestCrashReplay gates on.
type ingestReport struct {
	Store     string `json:"store"`
	Attempted int    `json:"attempted"` // inserts attempted before the crash
	Acked     int    `json:"acked"`     // inserts acknowledged (journal committed)
	Failed    int    `json:"failed"`    // inserts refused (injected journal faults)
	Splits    int    `json:"splits"`    // bucket splits acknowledged to the writer

	JournalAppends int64 `json:"journal_appends"` // fsynced journal records before the crash
	Replayed       int64 `json:"replayed"`        // journaled ops re-applied on reopen

	LostAcks      int   `json:"lost_acks"`      // acked inserts missing after replay — MUST be 0
	ScrubPages    int64 `json:"scrub_pages"`    // page copies verified after replay
	ScrubCorrupt  int64 `json:"scrub_corrupt"`  // corrupt copies after replay — MUST be 0
	ScrubRepaired int64 `json:"scrub_repaired"` //
	OK            bool  `json:"ok"`             // lost_acks == 0 && scrub_corrupt == 0
}

// runIngest is the online-write crash/replay smoke: open a writable layout,
// optionally arm failpoints on the write path (e.g. kill one disk's page
// writes, the way TestIngestCrashReplay does at r=2), ingest -n records while
// recording which inserts were acknowledged, hard-crash the store WITHOUT a
// checkpoint, reopen it (journal replay), and verify that every acknowledged
// insert survived, then scrub the whole layout for checksum damage. The
// report is printed as JSON; OK=false also exits nonzero.
func runIngest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("store", "", "writable layout directory (checksummed pages; required)")
	n := fs.Int("n", 2000, "records to insert before the simulated crash")
	seed := fs.Int64("seed", 1, "key-generation seed")
	faultSpec := fs.String("fault", "", "failpoint spec armed on the write path, e.g. store.write.disk0:err (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "fault registry seed")
	timeout := fs.Duration("timeout", time.Minute, "overall deadline for the ingest phase")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("ingest: -store is required")
	}
	if *n < 1 {
		return fmt.Errorf("ingest: -n wants at least 1, got %d", *n)
	}
	reg, err := faultRegistry(*faultSpec, *faultSeed)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}

	s, err := store.Open(*dir)
	if err != nil {
		return err
	}
	s.SetFaults(reg)

	rep := ingestReport{Store: *dir, Attempted: *n}
	dom := s.Grid().Domain()
	rng := rand.New(rand.NewSource(*seed))
	acked := make([]geom.Point, 0, *n)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	for i := 0; i < *n; i++ {
		key := make(geom.Point, len(dom))
		for d, iv := range dom {
			key[d] = iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
		}
		res, err := s.Insert(ctx, key)
		if err != nil {
			// An unacknowledged insert (injected journal fault): the record
			// may or may not survive replay, but it is allowed to be absent.
			rep.Failed++
			continue
		}
		rep.Acked++
		rep.Splits += res.Splits
		acked = append(acked, key)
	}
	rep.JournalAppends = s.WriteCounters().JournalAppends

	// kill -9: no checkpoint. The checkpoint file on disk is stale; only
	// the per-disk journals carry the ingest.
	s.CloseNoCheckpoint()

	// Recovery: reopen replays every committed operation, rewriting the
	// affected buckets on every owner disk — which also heals copies a
	// fault kept the live writer from persisting.
	s2, err := store.Open(*dir)
	if err != nil {
		return fmt.Errorf("ingest: reopen after crash: %w", err)
	}
	defer s2.Close()
	rep.Replayed = s2.WriteCounters().JournalReplays
	for _, key := range acked {
		if len(s2.Grid().Lookup(key)) == 0 {
			rep.LostAcks++
		}
	}
	scrub, err := s2.Scrub(context.Background(), 0)
	if err != nil {
		return fmt.Errorf("ingest: scrub after replay: %w", err)
	}
	rep.ScrubPages = scrub.Pages
	rep.ScrubCorrupt = scrub.Corrupt
	rep.ScrubRepaired = scrub.Repaired
	rep.OK = rep.LostAcks == 0 && rep.ScrubCorrupt == 0

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", data)
	if !rep.OK {
		return fmt.Errorf("ingest: %d acked inserts lost, %d corrupt page copies after replay",
			rep.LostAcks, rep.ScrubCorrupt)
	}
	return nil
}
