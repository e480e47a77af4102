package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"pgridfile/internal/stats"
)

// Cell is one matrix point's aggregated counters, summed over trials. Every
// JSON field is deterministic for a fixed (code, Options): counts of events,
// never timings. P99Micros is the one wall-clock figure and is excluded from
// the JSON so reports stay byte-comparable across machines.
type Cell struct {
	Fault    string `json:"fault"`
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Replicas int    `json:"replicas"`

	// Queries is the number of data queries the server answered.
	Queries int64 `json:"queries"`
	// Errors counts queries that surfaced an error (degraded mode should
	// hold this at zero under every axis).
	Errors int64 `json:"errors"`
	// ClientErrors counts ops whose client call returned an error — the
	// client-side view of Errors, split out so a transport-layer failure is
	// distinguishable from a server-side one.
	ClientErrors int64 `json:"client_errors"`
	// Degraded counts queries answered partially (disk lost, no replica).
	Degraded int64 `json:"degraded"`
	// Failover counts buckets rerouted to a surviving replica after a
	// failed read of their copy.
	Failover int64 `json:"failover"`
	// FaultsFired counts registry injections that actually fired.
	FaultsFired int64 `json:"faults_fired"`
	// ScrubPages/ScrubCorrupt/ScrubRepaired report the end-of-trial scrub
	// pass: page copies verified, checksum mismatches found, mismatches
	// repaired from a replica.
	ScrubPages    int64 `json:"scrub_pages"`
	ScrubCorrupt  int64 `json:"scrub_corrupt"`
	ScrubRepaired int64 `json:"scrub_repaired"`

	// P99Micros is wall-clock query latency, the worst trial's 99th
	// percentile: rendered in the table for the operator, never persisted
	// or gated.
	P99Micros float64 `json:"-"`
}

func (c Cell) key() string {
	return fmt.Sprintf("%s|%s|%s|r%d", c.Fault, c.Scheme, c.Workload, c.Replicas)
}

// gated returns the counters the baseline comparison checks, with stable
// names for violation messages.
func (c Cell) gated() []counter {
	return []counter{
		{"queries", c.Queries},
		{"errors", c.Errors},
		{"client_errors", c.ClientErrors},
		{"degraded", c.Degraded},
		{"failover", c.Failover},
		{"faults_fired", c.FaultsFired},
		{"scrub_pages", c.ScrubPages},
		{"scrub_corrupt", c.ScrubCorrupt},
		{"scrub_repaired", c.ScrubRepaired},
	}
}

type counter struct {
	name string
	val  int64
}

// Report is a full campaign result. The header fields pin the configuration
// the cells were measured under; Compare refuses to gate across differing
// configurations.
type Report struct {
	Seed    int64  `json:"seed"`
	Records int    `json:"records"`
	Disks   int    `json:"disks"`
	Queries int    `json:"queries"`
	Trials  int    `json:"trials"`
	Cells   []Cell `json:"cells"`
}

// Marshal renders the report as stable, newline-terminated indented JSON —
// the committed-baseline format.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the report to path in baseline format.
func (r *Report) Save(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a report written by Save (or committed as a baseline).
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("campaign: %s: %v", path, err)
	}
	return &r, nil
}

// Table renders the report for operators: one row per cell, counters plus
// the (ungated) wall-clock p99.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("scenario campaign — %d cells, %d trials × %d queries (p99 is wall-clock, not gated)",
			len(r.Cells), r.Trials, r.Queries),
		"fault", "scheme", "workload", "r",
		"queries", "errors", "degraded", "failover",
		"corrupt", "repaired", "p99(µs)")
	for _, c := range r.Cells {
		t.AddRow(c.Fault, c.Scheme, c.Workload, c.Replicas,
			c.Queries, c.Errors, c.Degraded, c.Failover,
			c.ScrubCorrupt, c.ScrubRepaired, c.P99Micros)
	}
	return t
}

// Compare gates got against a baseline: identical configuration, identical
// matrix shape, and every gated counter equal to the baseline value. It
// returns human-readable violations, empty when the gate passes.
func Compare(got, want *Report) []string {
	var v []string
	if got.Seed != want.Seed || got.Records != want.Records || got.Disks != want.Disks ||
		got.Queries != want.Queries || got.Trials != want.Trials {
		return append(v, fmt.Sprintf(
			"config mismatch: got seed=%d records=%d disks=%d queries=%d trials=%d, baseline seed=%d records=%d disks=%d queries=%d trials=%d",
			got.Seed, got.Records, got.Disks, got.Queries, got.Trials,
			want.Seed, want.Records, want.Disks, want.Queries, want.Trials))
	}
	index := make(map[string]Cell, len(got.Cells))
	for _, c := range got.Cells {
		index[c.key()] = c
	}
	for _, w := range want.Cells {
		g, ok := index[w.key()]
		if !ok {
			v = append(v, "cell missing from run: "+w.key())
			continue
		}
		delete(index, w.key())
		wc := w.gated()
		for i, gc := range g.gated() {
			if gc.val != wc[i].val {
				v = append(v, fmt.Sprintf("%s: %s = %d, baseline %d",
					w.key(), gc.name, gc.val, wc[i].val))
			}
		}
	}
	extra := make([]string, 0, len(index))
	for k := range index {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		v = append(v, "cell not in baseline: "+k)
	}
	return v
}
