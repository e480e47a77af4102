package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

const (
	disks     = 8
	pageBytes = 4096
	// clients = connections = 2: the sandbox has two CPUs and the server
	// shares them with the load generator (README.md, "Sizing").
	clients = 2
	// hotCache holds the whole 41 MB data set many times over; coldCache
	// holds about a quarter of its decoded buckets. It must stay positive:
	// the scheduler only merges windows when the cache's singleflight exists.
	hotCache  = 256 << 20
	coldCache = 2 << 20
	// deviceDelay is the emulated device's fixed service time per read span,
	// deviceService the same as a duration.
	deviceDelay   = "store.read:delay=500us"
	deviceService = 500 * time.Microsecond
)

// clockKind names the clock a workload's throughput and latencies are read
// off. A noisy host slows a workload through whatever bounds it, so that is
// what the harness probes between the workload's windows.
type clockKind int

const (
	cpuClock    clockKind = iota // CPU-bound: the scan and loopback probe
	deviceClock                  // bound by the emulated device: its timers
	wallClock                    // an open loop's schedule is wall time: no probe
)

// workload is one serving regime. BENCHMARK.json carries the same names with
// the reason each exists.
type workload struct {
	name       string
	cacheBytes int64
	replicas   int
	writeFrac  float64 // share of ops sent as INSERTs of fresh keys
	faults     string  // fault spec armed before serving; "" for none
	rate       float64 // open-loop offered rate, ops/s; 0 means closed loop
	pipeline   int     // client pipeline depth (tagged wire path when > 1)
	warmOps    int     // ops of warm-up, excluded from every latency figure
	hitLo      float64 // regime guard: cache hit rate over the measured window
	hitHi      float64
	// clock is what the workload's timed figures are read off (host.go): the
	// zero value for a CPU-bound workload.
	clock clockKind
	// ungated workloads run by hand and under -workload all and -repeat, but
	// are not in BENCHMARK.json: their spread here exceeds any bound it may fix.
	ungated bool
}

var workloads = []workload{
	{name: "hot-closed", cacheBytes: hotCache, replicas: 1, warmOps: 8192, hitLo: 0.99, hitHi: 1},
	{name: "cold-closed", cacheBytes: coldCache, replicas: 1, warmOps: 4096, hitLo: 0.15, hitHi: 0.45},
	{name: "disk-model", cacheBytes: coldCache, replicas: 1, faults: deviceDelay, warmOps: 128, hitLo: 0.15, hitHi: 0.45, clock: deviceClock},
	{name: "write-mix", cacheBytes: hotCache, replicas: 2, writeFrac: 0.2, warmOps: 4096, hitLo: 0, hitHi: 1},
	{name: "hot-open", cacheBytes: hotCache, replicas: 1, rate: 6000, pipeline: 16, warmOps: 8192, hitLo: 0.99, hitHi: 1, clock: wallClock, ungated: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sizing scales a run. full is the benchmark; smoke shrinks the data set and
// the run so `go test` can check names and determinism in about a second per
// workload — at that size the regimes do not hold, so the guards are off.
type sizing struct {
	records     int
	streamOps   int // length of the op stream; runs cycle through it
	freshKeys   int // keys set aside for inserts; a run must not need more
	verifyOps   int // ops at the start of the warm-up whose full result sets are compared
	replayOps   int // ops replayed single-threaded against each layer
	heavyOps    int // of those, how many go through result codec and page reads
	setups      int // times the set-up is repeated for setup_s (end-to-end runs only)
	writeOps    int // inserts in the single-threaded store and gridfile replays
	probePasses int // passes of the host probe's kernel per probe
	guards      bool
}

var (
	full  = sizing{records: 400_000, streamOps: 1 << 14, freshKeys: 1 << 16, verifyOps: 2000, replayOps: 20_000, heavyOps: 2000, setups: 3, writeOps: 1000, probePasses: 50, guards: true}
	smoke = sizing{records: 20_000, streamOps: 1 << 12, freshKeys: 1 << 14, verifyOps: 200, replayOps: 1000, heavyOps: 200, setups: 1, writeOps: 100, probePasses: 5}
)

// scaled shrinks the workload's absolute sizes with the data set, so a smoke
// run stays in roughly the same regime as the full one.
func (w workload) scaled(sz sizing) workload {
	if sz.records == full.records {
		return w
	}
	if w.cacheBytes == coldCache {
		w.cacheBytes = coldCache * int64(sz.records) / int64(full.records)
	}
	w.warmOps = max(w.warmOps*sz.records/full.records, 64)
	return w
}

// layout is one laid-out data set: the in-memory grid file the answers are
// checked against, its declustering, and where each set-up stage's time went.
type layout struct {
	dir   string
	f     *gridfile.File
	grid  core.Grid
	alloc core.Allocation
	rm    *replica.Map // nil at r=1

	buildS, declusterS, placeS, writeS float64
}

// buildLayout runs the set-up pipeline the paper's system needs before it
// can serve: data set → grid file → decluster → place replicas → write the
// per-disk page files.
func buildLayout(dir string, records int, seed int64, replicas int) (*layout, error) {
	l := &layout{dir: dir}
	t := time.Now()
	lap := func() float64 {
		d := time.Since(t).Seconds()
		t = time.Now()
		return d
	}
	f, err := synth.Hotspot2D(records, seed).Build()
	if err != nil {
		return nil, err
	}
	l.f, l.buildS = f, lap()

	l.grid = core.FromGridFile(f)
	allocator, err := core.ParseAllocator("minimax", 1, 0)
	if err != nil {
		return nil, err
	}
	if l.alloc, err = allocator.Decluster(l.grid, disks); err != nil {
		return nil, err
	}
	l.declusterS = lap()

	if replicas > 1 {
		if l.rm, err = (&replica.Placer{Replicas: replicas}).Place(l.grid, l.alloc); err != nil {
			return nil, err
		}
		l.placeS = lap()
		_, err = store.WriteReplicated(dir, f, l.rm, pageBytes)
	} else {
		_, err = store.Write(dir, f, l.alloc, pageBytes)
	}
	if err != nil {
		return nil, err
	}
	l.writeS = lap()
	return l, nil
}

// served is one in-process server over a layout directory.
type served struct {
	srv *server.Server
	// st is the page store when the harness opened it itself (write-mix),
	// so the run can end in a crash-and-replay instead of a checkpoint.
	st    *store.Store
	openS float64
}

// serve opens dir for the workload. traceLog, when non-nil, turns on stage
// tracing of every query and receives one line per query.
func serve(dir string, w workload, seed int64, traceLog io.Writer) (*served, error) {
	reg := fault.NewRegistry(seed)
	if w.faults != "" {
		if err := reg.SetSpec(w.faults); err != nil {
			return nil, err
		}
	}
	cfg := server.Config{CacheBytes: w.cacheBytes, Faults: reg}
	if traceLog != nil {
		cfg.TraceSample = 1
		cfg.TraceSlowLog = true
		cfg.TraceLog = traceLog
	}
	sv := &served{}
	t := time.Now()
	var err error
	if w.writeFrac > 0 {
		// OpenDir would own the store and checkpoint it on Close; the
		// durability check needs to close it without one.
		if sv.st, err = store.OpenWritable(dir); err != nil {
			return nil, err
		}
		if sv.srv, err = server.New(sv.st.Grid(), sv.st, cfg); err != nil {
			sv.st.Close()
			return nil, err
		}
	} else if sv.srv, err = server.OpenDir(dir, cfg); err != nil {
		return nil, err
	}
	sv.openS = time.Since(t).Seconds()
	return sv, nil
}

// close shuts the server down cleanly (a writable store checkpoints).
func (sv *served) close() {
	sv.srv.Close()
	if sv.st != nil {
		sv.st.Close()
	}
}

// crash shuts the server down and drops the store without a checkpoint, so
// the journals keep every operation since the last automatic one. The OS
// page cache survives: this tests replay, not power loss.
func (sv *served) crash() {
	sv.srv.Close()
	sv.st.CloseNoCheckpoint()
}

// layoutBytes sums the disk page files and journals of a layout directory.
func layoutBytes(dir string) (int64, error) {
	var total int64
	for d := 0; d < disks; d++ {
		for _, name := range []string{store.DiskFileName(d), store.JournalFileName(d)} {
			fi, err := os.Stat(filepath.Join(dir, name))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("no page files under %s", dir)
	}
	return total, nil
}
