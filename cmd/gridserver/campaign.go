package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pgridfile/internal/campaign"
)

// runCampaign executes the scenario campaign (internal/campaign): a seeded
// fault × scheme × workload × replication matrix served by in-process
// gridservers, rendered as a table and optionally written as deterministic
// JSON. (The regression gate against the committed CAMPAIGN.json is
// internal/campaign's TestDefaultMatrixMatchesCommittedBaseline.)
func runCampaign(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	out := fs.String("out", "", "write the report JSON here (byte-identical for a fixed seed and matrix)")
	records := fs.Int("records", 0, "synthetic dataset size (default 900)")
	disks := fs.Int("disks", 0, "layout disk count (default 4)")
	queries := fs.Int("queries", 0, "queries per trial (default 40)")
	trials := fs.Int("trials", 0, "trials per cell (default 2)")
	seed := fs.Int64("seed", 0, "campaign seed (default 1)")
	schemes := fs.String("schemes", "", "comma-separated allocator names (default minimax,DM/D,HCAM/F)")
	replicas := fs.String("replicas", "", "comma-separated replication factors (default 1,2)")
	faults := fs.String("faults", "", "comma-separated fault axes: none, corrupt, kill-diskN, torn-diskN, lose-diskN, or a fault spec (default none,kill-disk0,corrupt,lose-disk0)")
	workloads := fs.String("workloads", "", "comma-separated workload axes: uniform, hotspot, points, scans (default uniform,hotspot)")
	fs.Parse(args)

	opts := campaign.Options{
		Records:   *records,
		Disks:     *disks,
		Queries:   *queries,
		Trials:    *trials,
		Seed:      *seed,
		Schemes:   splitList(*schemes),
		Workloads: splitList(*workloads),
		Faults:    splitList(*faults), // a spec's rules are ;-separated, so commas still delimit axes
	}
	for _, rs := range splitList(*replicas) {
		r, err := strconv.Atoi(rs)
		if err != nil {
			return fmt.Errorf("campaign: bad replica count %q", rs)
		}
		opts.Replicas = append(opts.Replicas, r)
	}

	rep, err := campaign.Run(opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Table().Render())
	if *out != "" {
		if err := rep.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "campaign: report written to %s (%d cells)\n", *out, len(rep.Cells))
	}
	return nil
}

// splitList splits a comma-separated flag, dropping empty elements so a
// trailing comma is harmless; an empty flag returns nil (package defaults).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
