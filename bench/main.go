// Command bench is the repository benchmark: five serving regimes over one
// shared data set, each served in-process over real loopback TCP, checked
// against the in-memory grid file, and reported as the end-to-end and
// per-layer metrics BENCHMARK.json declares. README.md in this directory
// says why each workload exists and how the metrics interact.
//
//	go run ./bench -workload hot-closed -seed 1            one run, end-to-end metrics
//	go run ./bench -workload hot-closed -seed 1 -trace 1   one run, per-layer metrics
//	go run ./bench -workload all -seed 1                   every workload, both kinds
//	go run ./bench -repeat 10                              spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// metric is one reported value with its declared unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints: exactly the keys the driver reads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line before it: what ran, how many samples stand behind
// the latency figures, and anything a reader must know to interpret them.
type runInfo struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     int            `json:"trace"`
	Records   int            `json:"records"`
	Buckets   int            `json:"buckets"`
	OpsSHA256 string         `json:"ops_sha256"`
	Samples   map[string]int `json:"samples"`
	// HostSlowdown is the median over the measured windows of the slowdown
	// the workload's probe read (1 = idle sandbox, and on the wall clock);
	// Wall holds the timed end-to-end figures as the wall clock read them,
	// before that correction.
	HostSlowdown float64            `json:"host_slowdown"`
	Wall         map[string]float64 `json:"wall_clock,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the data set and the op stream")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced and replayed runs")
	repeat := flag.Int("repeat", 0, "run the workload (or all) this many times, on seeds seed..seed+N-1, and print medians, quartiles and spreads against the bounds in BENCHMARK.json")
	smokeFlag := flag.Bool("smoke", false, "20k-record data set and ~1s runs: checks the plumbing, not the regimes")
	flag.Parse()

	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	sz := full
	if *smokeFlag {
		sz = smoke
	}
	switch {
	case *repeat > 0:
		if err := runRepeat(*repeat, *workload, *seed, *seconds, *smokeFlag); err != nil {
			fatal(err)
		}
	case *workload == "all":
		if err := runAll(*seed, *seconds, *smokeFlag); err != nil {
			fatal(err)
		}
	default:
		wl, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want one of %v or all)", *workload, workloadNames()))
		}
		info, rep, err := runOne(wl, sz, *seed, *seconds, *trace, scratchRoot)
		if err != nil {
			fatal(err)
		}
		printJSON(info)
		printJSON(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// decl declares one metric: the Go tables below and BENCHMARK.json must list
// the same names and units (bench_test.go holds them together).
type decl struct{ name, unit string }

var endToEnd = []decl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"space_amp", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []decl{
	{"client.point_p50_ms", "ms"},
	{"client.range_p50_ms", "ms"},
	{"client.range-count_p50_ms", "ms"},
	{"client.partial_p50_ms", "ms"},
	{"client.knn_p50_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.wire_overhead_us", "us"},
	{"loadgen.max_lag_ms", "ms"},
	{"loadgen.achieved_frac", "ratio"},
	{"protocol.req_roundtrip_ns", "ns"},
	{"protocol.res_roundtrip_ns", "ns"},
	{"protocol.res_bytes_per_op", "B"},
	{"server.admission_p50_us", "us"},
	{"server.translate_p50_us", "us"},
	{"server.cache_p50_us", "us"},
	{"server.encode_p50_us", "us"},
	{"server.backoff_p50_us", "us"},
	{"server.untraced_residual_us", "us"},
	{"server.write_frames_per_batch", "ratio"},
	{"server.cpu_us_per_op", "us"},
	{"server.allocs_per_op", "count"},
	{"server.alloc_bytes_per_op", "B"},
	{"server.rejected", "count"},
	{"server.deadline_exceeded", "count"},
	{"server.disk_retries", "count"},
	{"server.degraded", "count"},
	{"server.trace_overhead_frac", "ratio"},
	{"gridfile.translate_ns", "ns"},
	{"gridfile.buckets_per_query", "count"},
	{"gridfile.insert_ns", "ns"},
	{"gridfile.splits_per_kwrite", "count"},
	{"gridfile.build_s", "s"},
	{"cache.hit_rate", "ratio"},
	{"cache.shared_frac", "ratio"},
	{"cache.evictions_per_op", "count"},
	{"cache.invalidations_per_write", "count"},
	{"cache.get_hit_ns", "ns"},
	{"cache.get_miss_ns", "ns"},
	{"sched.merged_fetches_per_op", "count"},
	{"sched.fetch_wait_p50_us", "us"},
	{"sched.disk_imbalance", "ratio"},
	{"fault.injected_per_op", "count"},
	{"store.pages_per_op", "count"},
	{"store.pread_ns_per_page", "ns"},
	{"store.decode_ns_per_page", "ns"},
	{"store.pread_p50_us", "us"},
	{"store.decode_p50_us", "us"},
	{"store.insert_ns", "ns"},
	{"store.journal_appends_per_write", "count"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"store.checkpoint_s", "s"},
	{"store.replay_s", "s"},
	{"store.journal_replays", "count"},
	{"store.write_layout_s", "s"},
	{"store.open_s", "s"},
	{"core.decluster_s", "s"},
	{"replica.place_s", "s"},
	{"sim.rt_buckets_mean", "count"},
	{"sim.rt_over_optimal", "ratio"},
	{"sim.rt_buckets_mean_dmd", "count"},
	{"sim.data_balance_degree", "ratio"},
	{"sim.closest_pairs_same_disk", "count"},
	{"layers.sum_over_e2e", "ratio"},
	{"host.slowdown", "ratio"},
}

// metricSet collects a run's values under their declared names. A layer
// metric a workload does not exercise stays at its zero: the driver wants
// every declared name on every workload.
type metricSet struct {
	decls []decl
	vals  map[string]float64
}

func newMetricSet(decls []decl) *metricSet {
	return &metricSet{decls: decls, vals: make(map[string]float64, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (m *metricSet) get(name string) float64 { return m.vals[name] }

func (m *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(m.decls))
	for _, d := range m.decls {
		out[d.name] = metric{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quartiles(xs)[1] }
