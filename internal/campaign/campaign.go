// Package campaign runs the scenario campaign of DESIGN S27: a seeded,
// deterministic experiment matrix sweeping fault scenarios × declustering
// schemes × workload mixes × replication factors against an in-process
// gridserver, and aggregating per-cell serving counters into a report that
// can be diffed against a committed baseline.
//
// Determinism is the design constraint everything else bends around: a
// cell's gated counters must depend only on (code, options), never on
// wall-clock timing, so the same seed reproduces a byte-identical report on
// any machine. The campaign therefore runs one sequential client (so the
// queries, and the faults they meet, come in one order; which copy a read
// takes is a function of the placements and the query anyway), disables
// the bucket cache (every query pays the full read path), uses only
// always-fire or seeded fault rules, and keeps wall-clock latency (p99) out
// of the persisted report — it appears in the rendered table but is never
// gated.
//
// Fault axes come in four flavors: none, registry-injected faults (a dead
// disk, torn reads — see internal/fault), physical page corruption, which
// flips bits in the on-disk page files themselves so the per-page checksums
// (store format 2) and the scrubber's repair-from-replica path are exercised
// end to end, and a lost disk, whose file is truncated to nothing under the
// running server — a real read failure, not an injected one. Damaged layouts
// are restored from pristine bytes between trials, so cells never
// contaminate each other.
package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// Options configures a campaign. The zero value runs the default matrix:
// 4 faults × 3 schemes × 2 workloads × r ∈ {1,2} = 48 cells, 2 trials each.
type Options struct {
	// Records sizes the synthetic dataset (synth.Uniform2D). Default 900.
	Records int
	// Disks is the layout's disk count. Default 4.
	Disks int
	// PageBytes caps the layout page size; the store writes pages no larger
	// than a full bucket needs. Default 4096.
	PageBytes int
	// Queries per trial. Default 40.
	Queries int
	// Trials per cell; counters sum over trials. Default 2.
	Trials int
	// Seed drives the dataset, the allocators, the workload synthesis and
	// the fault registry. Default 1.
	Seed int64
	// Schemes are allocator names in core.ParseAllocator grammar.
	// Default minimax, DM/D, HCAM/F — one per allocator family.
	Schemes []string
	// Replicas are the replication factors to sweep. Default 1, 2.
	Replicas []int
	// Faults are fault-axis names: "none", "corrupt", "kill-diskN",
	// "torn-diskN", "lose-diskN" (N below Disks), or a raw internal/fault
	// spec. Default none, kill-disk0, corrupt, lose-disk0.
	Faults []string
	// Workloads are workload-axis names: "uniform", "hotspot", "points",
	// "scans". Default uniform, hotspot.
	Workloads []string
}

func (o Options) withDefaults() Options {
	if o.Records <= 0 {
		o.Records = 900
	}
	if o.Disks <= 0 {
		o.Disks = 4
	}
	if o.PageBytes <= 0 {
		o.PageBytes = 4096
	}
	if o.Queries <= 0 {
		o.Queries = 40
	}
	if o.Trials <= 0 {
		o.Trials = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []string{"minimax", "DM/D", "HCAM/F"}
	}
	if len(o.Replicas) == 0 {
		o.Replicas = []int{1, 2}
	}
	if len(o.Faults) == 0 {
		o.Faults = []string{"none", "kill-disk0", "corrupt", "lose-disk0"}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"uniform", "hotspot"}
	}
	return o
}

// faultAxis is one resolved fault scenario: registry rules armed for every
// trial, and/or physical page corruption applied before the server opens,
// and/or the disk file lose names truncated once it has.
type faultAxis struct {
	name    string
	rules   []fault.Rule
	corrupt bool
	lose    string
}

func parseFaultAxis(name string, disks int) (faultAxis, error) {
	ax := faultAxis{name: name}
	switch {
	case name == "none":
	case name == "corrupt":
		ax.corrupt = true
	case strings.HasPrefix(name, "kill-disk"), strings.HasPrefix(name, "torn-disk"), strings.HasPrefix(name, "lose-disk"):
		d, err := strconv.Atoi(name[len("kill-disk"):])
		if err != nil || d < 0 || d >= disks {
			return ax, fmt.Errorf("campaign: fault %q: bad disk number (the layout has %d disks)", name, disks)
		}
		switch name[:len("kill")] {
		case "kill":
			ax.rules = []fault.Rule{{Site: fault.StoreReadDiskSite(d), Kind: fault.KindError}}
		case "torn":
			ax.rules = []fault.Rule{{Site: fault.StoreReadDiskSite(d), Kind: fault.KindTorn}}
		default:
			ax.lose = store.DiskFileName(d)
		}
	default:
		rules, err := fault.Parse(name)
		if err != nil {
			return ax, fmt.Errorf("campaign: fault %q is neither a named axis nor a fault spec: %v", name, err)
		}
		ax.rules = rules
	}
	return ax, nil
}

// workloadAxis is one resolved query mix over the shared dataset.
type workloadAxis struct {
	name string
	opts loadgen.SynthOptions
}

func parseWorkloadAxis(name string) (workloadAxis, error) {
	switch name {
	case "uniform":
		return workloadAxis{name: name}, nil
	case "hotspot":
		return workloadAxis{name: name, opts: loadgen.SynthOptions{
			Skew: loadgen.Skew{Hot: 0.8},
		}}, nil
	case "points":
		return workloadAxis{name: name, opts: loadgen.SynthOptions{
			Mix: loadgen.Mix{Point: 1},
		}}, nil
	case "scans":
		return workloadAxis{name: name, opts: loadgen.SynthOptions{
			Mix:        loadgen.Mix{Range: 1, RangeCount: 1},
			RangeRatio: 0.05,
		}}, nil
	}
	return workloadAxis{}, fmt.Errorf("campaign: unknown workload %q (uniform, hotspot, points, scans)", name)
}

// layout is one on-disk layout shared by every cell of a (scheme, replicas)
// pair, plus the pristine file bytes corruption and lost-disk cells restore
// from.
type layout struct {
	scheme   string
	replicas int
	dir      string
	// placements are where the writer put each bucket, pageBytes the size
	// of the pages they count in, as the layout's checkpoint records it.
	placements []*store.Placement
	pageBytes  int
	pristine   map[string][]byte
}

func buildLayout(root string, idx int, f *gridfile.File, g core.Grid, scheme string, r int, opts Options) (*layout, error) {
	alloc, err := core.ParseAllocator(scheme, opts.Seed, 0)
	if err != nil {
		return nil, fmt.Errorf("campaign: scheme %q: %v", scheme, err)
	}
	a, err := alloc.Decluster(g, opts.Disks)
	if err != nil {
		return nil, fmt.Errorf("campaign: decluster %s: %v", scheme, err)
	}
	dir := filepath.Join(root, fmt.Sprintf("layout%02d-r%d", idx, r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, a)
	if err != nil {
		return nil, fmt.Errorf("campaign: place %s r=%d: %v", scheme, r, err)
	}
	pls, err := store.WriteReplicated(dir, f, rm, opts.PageBytes)
	if err != nil {
		return nil, fmt.Errorf("campaign: layout %s r=%d: %v", scheme, r, err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	l := &layout{scheme: scheme, replicas: r, dir: dir, placements: pls, pageBytes: st.Manifest().PageBytes,
		pristine: make(map[string][]byte, opts.Disks)}
	st.Close()
	for d := 0; d < opts.Disks; d++ {
		name := store.DiskFileName(d)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		l.pristine[name] = data
	}
	return l, nil
}

// restore rewrites every disk file from its pristine snapshot.
func (l *layout) restore() error {
	for name, data := range l.pristine {
		if err := os.WriteFile(filepath.Join(l.dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// corrupt bit-flips the first page of the primary copy of three evenly
// spaced buckets — enough damage to hit several disks and schemes
// differently, fully determined by the layout. The flipped byte sits
// mid-page: a key or padding, depending on how full the bucket is; the
// page's checksum catches it either way.
func (l *layout) corrupt() error {
	n := len(l.placements)
	if n == 0 {
		return fmt.Errorf("campaign: layout %s has no buckets to corrupt", l.scheme)
	}
	seen := map[int]bool{}
	for _, i := range []int{0, n / 2, n - 1} {
		if seen[i] {
			continue
		}
		seen[i] = true
		pl := l.placements[i]
		fh, err := os.OpenFile(filepath.Join(l.dir, store.DiskFileName(pl.OwnerDisks[0])), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		off := pl.OwnerPages[0]*int64(l.pageBytes) + int64(l.pageBytes)/2
		var b [1]byte
		if _, err := fh.ReadAt(b[:], off); err != nil {
			fh.Close()
			return err
		}
		b[0] ^= 0x20
		if _, err := fh.WriteAt(b[:], off); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the full matrix and returns the aggregated report. Cells are
// emitted in fixed axis order (fault, scheme, workload, replicas), so the
// report marshals identically across runs with the same options.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	faults := make([]faultAxis, len(opts.Faults))
	for i, name := range opts.Faults {
		ax, err := parseFaultAxis(name, opts.Disks)
		if err != nil {
			return nil, err
		}
		faults[i] = ax
	}
	workloads := make([]workloadAxis, len(opts.Workloads))
	for i, name := range opts.Workloads {
		ax, err := parseWorkloadAxis(name)
		if err != nil {
			return nil, err
		}
		workloads[i] = ax
	}
	for _, r := range opts.Replicas {
		if r < 1 || r > opts.Disks {
			return nil, fmt.Errorf("campaign: replicas %d out of range [1, %d disks]", r, opts.Disks)
		}
	}

	f, err := synth.Uniform2D(opts.Records, opts.Seed).Build()
	if err != nil {
		return nil, err
	}
	g := core.FromGridFile(f)
	root, err := os.MkdirTemp("", "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	type layoutKey struct {
		scheme string
		r      int
	}
	layouts := make(map[layoutKey]*layout)
	for si, scheme := range opts.Schemes {
		for _, r := range opts.Replicas {
			l, err := buildLayout(root, si, f, g, scheme, r, opts)
			if err != nil {
				return nil, err
			}
			layouts[layoutKey{scheme, r}] = l
		}
	}

	rep := &Report{
		Seed:    opts.Seed,
		Records: opts.Records,
		Disks:   opts.Disks,
		Queries: opts.Queries,
		Trials:  opts.Trials,
	}
	for _, fa := range faults {
		for _, scheme := range opts.Schemes {
			for _, wl := range workloads {
				for _, r := range opts.Replicas {
					cell, err := runCell(opts, f, layouts[layoutKey{scheme, r}], fa, wl)
					if err != nil {
						return nil, fmt.Errorf("campaign: cell %s/%s/%s/r%d: %v",
							fa.name, scheme, wl.name, r, err)
					}
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
	}
	return rep, nil
}

// runCell runs one cell's trials and sums their counters. Every trial gets
// a fresh server (fresh metrics) over the shared layout directory.
func runCell(opts Options, f *gridfile.File, l *layout, fa faultAxis, wl workloadAxis) (Cell, error) {
	cell := Cell{Fault: fa.name, Scheme: l.scheme, Workload: wl.name, Replicas: l.replicas}
	for t := 0; t < opts.Trials; t++ {
		if err := runTrial(opts, f, l, fa, wl, t, &cell); err != nil {
			return cell, err
		}
	}
	return cell, nil
}

func runTrial(opts Options, f *gridfile.File, l *layout, fa faultAxis, wl workloadAxis, trial int, cell *Cell) error {
	if fa.corrupt || fa.lose != "" {
		// The scrubber repairs r>=2 layouts during the trial; restoring
		// pristine bytes afterwards re-baselines r=1 layouts too.
		defer func() { _ = l.restore() }()
	}
	if fa.corrupt {
		if err := l.corrupt(); err != nil {
			return err
		}
	}
	reg := fault.NewRegistry(opts.Seed + int64(trial))
	reg.Set(fa.rules...)
	s, err := server.OpenDir(l.dir, server.Config{
		Degraded:   true,
		CacheBytes: -1, // every query pays the full read path
		Faults:     reg,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	// A lost disk goes once the server is up: Open refuses a layout whose
	// files are shorter than its checkpoint says.
	if fa.lose != "" {
		if err := os.Truncate(filepath.Join(l.dir, fa.lose), 0); err != nil {
			return err
		}
	}
	cl, err := server.NewClient(server.ClientConfig{
		Addr:    s.Addr().String(),
		Retries: -1, // transport retries would re-run queries and skew counters
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	// One worker: the sequential client the determinism contract needs.
	// Degraded mode should absorb every injected fault; a surfaced error is
	// a finding, not a crash — the loop counts it and keeps going.
	ctx := context.Background()
	ops := loadgen.Synthesize(f.Domain(), wl.opts, opts.Queries, opts.Seed*1000+int64(trial))
	res, err := loadgen.RunClosed(ctx, 1, len(ops), func(ctx context.Context, i int) error {
		_, err := loadgen.Send(ctx, cl, ops[i])
		return err
	})
	if err != nil {
		return err
	}
	cell.ClientErrors += int64(res.Errors)
	cell.P99Micros = max(cell.P99Micros, float64(res.Latency.P99.Microseconds()))
	scrub, err := s.ScrubNow(ctx)
	if err != nil {
		return fmt.Errorf("scrub: %v", err)
	}
	snap := s.Snapshot()
	cell.Queries += snap.QueriesTotal
	cell.Errors += snap.Errors
	cell.Degraded += snap.Degraded
	cell.Failover += snap.ReplicaFailover
	cell.FaultsFired += snap.FaultInjected
	cell.ScrubPages += scrub.Pages
	cell.ScrubCorrupt += scrub.Corrupt
	cell.ScrubRepaired += scrub.Repaired
	return nil
}
