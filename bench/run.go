package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pgridfile/internal/gridfile"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/server"
)

// scratchRoot holds every file a run writes; it sits in the working
// directory so a run never leaves its checkout.
const scratchRoot = ".bench_build"

// sample is one completed op as its client saw it.
type sample struct {
	lat  int64 // client-observed latency from the actual send, ns
	srv  int64 // server-side service time from the reply trailer, ns
	kind uint8 // loadgen.OpKind, or kindWrite
}

// env is the state of one run: the layout, the stream, the op cursor shared
// by every load segment, and the running verdict.
type env struct {
	w    workload
	sz   sizing
	seed int64
	lay  *layout
	str  *stream
	sv   *served
	c    *server.Client
	hc   *hostClock // the CPU clock: set-ups, and a CPU-bound workload's load
	lc   *hostClock // the clock the workload's load is read off; nil for the wall clock

	next  atomic.Int64 // next op of the stream; segments continue where the last stopped
	nextW atomic.Int64 // next fresh insert key
	acked []bool       // per insert key: acknowledged as applied (one writer per index)

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string
}

func (e *env) fail(format string, args ...any) {
	e.failed.Add(1)
	e.note(format, args...)
}

// note records a failure message without counting an op as failed (guards).
func (e *env) note(format string, args ...any) {
	e.failMu.Lock()
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.failMu.Unlock()
}

// doOp sends op i of the stream and checks its answer against the oracle; it
// reports whether the answer was right.
func (e *env) doOp(ctx context.Context, i int64) (sample, bool) {
	e.attempted.Add(1)
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		e.fail(format, args...)
	}
	j := int(i % int64(len(e.str.ops)))
	if e.str.write != nil && e.str.write[j] {
		k := e.nextW.Add(1) - 1
		if k >= int64(len(e.str.wkeys)) {
			bad("op %d: ran out of fresh insert keys", i)
			return sample{kind: kindWrite}, ok
		}
		t := time.Now()
		res, err := e.c.InsertCtx(ctx, e.str.wkeys[k])
		lat := time.Since(t)
		if err != nil || !res.Applied {
			bad("op %d: insert %v: applied=%v err=%v", i, e.str.wkeys[k], res.Applied, err)
		} else {
			e.acked[k] = true
		}
		return sample{lat: int64(lat), srv: int64(res.Info.Elapsed), kind: kindWrite}, ok
	}

	op := &e.str.ops[j]
	// Full result sets are compared at the start of the warm-up. With writes
	// in flight the sets move under the reads, so write-mix compares them
	// after the run instead, against a quiesced server (checkDurability).
	hashed := i < int64(len(e.str.sets)) && e.str.write == nil
	t := time.Now()
	a, err := issue(ctx, e.c, op, hashed)
	lat := time.Since(t)
	want := int(e.str.rows[j])
	switch {
	case err != nil:
		bad("op %d (%s): %v", i, op.Kind, err)
	case e.str.write != nil && (op.Kind == loadgen.OpRange || op.Kind == loadgen.OpRangeCount):
		// Inserts only add rows: at least the laid-out count, at most that
		// plus every insert issued so far.
		if hi := want + int(e.nextW.Load()); a.rows < want || a.rows > hi {
			bad("op %d (%s): %d rows, want %d..%d", i, op.Kind, a.rows, want, hi)
		}
	case a.rows != want:
		bad("op %d (%s): %d rows, want %d", i, op.Kind, a.rows, want)
	case hashed && a.set != e.str.sets[j]:
		bad("op %d (%s): result set differs from the in-memory grid file's", i, op.Kind)
	}
	return sample{lat: int64(lat), srv: int64(a.elapsed), kind: uint8(op.Kind)}, ok
}

// segment is one stretch of load and what the server counted across it.
type segment struct {
	samples []sample
	wall    time.Duration
	before  server.Snapshot
	after   server.Snapshot
	mem     [2]runtime.MemStats
	wbytes  [2]int64        // /proc/self/io write_bytes
	cpu     time.Duration   // user + system time the whole process burned
	open    *loadgen.Result // open-loop segments only
}

func (s *segment) ops() int { return len(s.samples) }

// latencies returns the client latencies of the samples keep selects.
func (s *segment) latencies(keep func(kind uint8) bool) []int64 {
	out := make([]int64, 0, len(s.samples))
	for _, x := range s.samples {
		if keep(x.kind) {
			out = append(out, x.lat)
		}
	}
	return out
}

func isRead(kind uint8) bool  { return kind != kindWrite }
func isWrite(kind uint8) bool { return kind == kindWrite }

// measure brackets a load function with the outside-in counters.
func (e *env) measure(load func(seg *segment)) *segment {
	seg := &segment{}
	runtime.ReadMemStats(&seg.mem[0])
	seg.wbytes[0] = procWriteBytes()
	seg.before = e.sv.srv.Snapshot()
	cpu := processCPU()
	t := time.Now()
	load(seg)
	seg.wall = time.Since(t)
	seg.cpu = processCPU() - cpu
	seg.after = e.sv.srv.Snapshot()
	seg.wbytes[1] = procWriteBytes()
	runtime.ReadMemStats(&seg.mem[1])
	return seg
}

// closedLoop runs n closed-loop clients, each sending its next op when the
// previous one is answered, for a fixed op count (ops > 0) or duration.
func (e *env) closedLoop(n, ops int, d time.Duration) *segment {
	return e.measure(func(seg *segment) {
		ctx := context.Background()
		per := make([][]sample, n)
		var claimed atomic.Int64
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				mine := make([]sample, 0, 1<<16)
				for {
					if ops > 0 {
						if claimed.Add(1) > int64(ops) {
							break
						}
					} else if !time.Now().Before(deadline) {
						break
					}
					s, _ := e.doOp(ctx, e.next.Add(1)-1)
					mine = append(mine, s)
				}
				per[g] = mine
			}(g)
		}
		wg.Wait()
		for _, mine := range per {
			seg.samples = append(seg.samples, mine...)
		}
	})
}

// errWrong tells loadgen an op failed; doOp has already recorded why.
var errWrong = errors.New("wrong answer")

// openLoop offers Poisson arrivals at the workload's fixed rate through
// loadgen.Run, which times every op from its intended send time.
func (e *env) openLoop(d time.Duration) (*segment, error) {
	n := int(e.w.rate * d.Seconds())
	base := e.next.Add(int64(n)) - int64(n)
	var runErr error
	seg := e.measure(func(seg *segment) {
		seg.samples = make([]sample, n)
		res, err := loadgen.Run(context.Background(), loadgen.Options{
			Rate: e.w.rate, N: n, Arrivals: loadgen.Poisson, Seed: e.seed,
		}, func(ctx context.Context, i int) error {
			var ok bool
			if seg.samples[i], ok = e.doOp(ctx, base+int64(i)); !ok {
				return errWrong
			}
			return nil
		})
		seg.open, runErr = &res, err
	})
	return seg, runErr
}

// A measured run is cut into windows. Each yields its own throughput and
// percentiles and the run reports their medians, so a stall of a few seconds
// does not decide the run's figures. A CPU-bound workload is probed between
// windows (host.go), so its windows are short: the host's speed moves within
// seconds. The other workloads get longWindows longer ones, so that even
// disk-model's ~100 ops/s leave a few samples beyond each window's p99.
const (
	window      = 500 * time.Millisecond
	longWindows = 5
)

// windows is how many windows a run of the given length is cut into.
func (w workload) windows(seconds float64) int {
	if w.clock != cpuClock {
		return longWindows
	}
	return max(int(seconds/window.Seconds()+0.5), 1)
}

// merge joins consecutive segments into one, for the counters and guards.
func merge(segs []*segment) *segment {
	first, last := segs[0], segs[len(segs)-1]
	all := &segment{before: first.before, after: last.after}
	all.mem[0], all.mem[1] = first.mem[0], last.mem[1]
	all.wbytes[0], all.wbytes[1] = first.wbytes[0], last.wbytes[1]
	for _, s := range segs {
		all.samples = append(all.samples, s.samples...)
		all.wall += s.wall
		all.cpu += s.cpu
		if s.open == nil {
			continue
		}
		if all.open == nil {
			all.open = &loadgen.Result{Offered: s.open.Offered}
		}
		all.open.Sent += s.open.Sent
		all.open.Errors += s.open.Errors
		all.open.Elapsed += s.open.Elapsed
		all.open.MaxLag = max(all.open.MaxLag, s.open.MaxLag)
	}
	if o := all.open; o != nil && o.Elapsed > 0 {
		o.Achieved = float64(o.Sent-o.Errors) / o.Elapsed.Seconds()
	}
	return all
}

// load runs the workload's own load shape for d.
func (e *env) load(d time.Duration) (*segment, error) {
	if e.w.rate > 0 {
		return e.openLoop(d)
	}
	return e.closedLoop(clients, 0, d), nil
}

// runOne is one benchmark run of one workload; its files live and die in a
// directory of their own under scratch.
func runOne(w workload, sz sizing, seed int64, seconds float64, trace int, scratch string) (*runInfo, *report, error) {
	if seconds <= 0 {
		return nil, nil, errors.New("-seconds must be positive")
	}
	w = w.scaled(sz)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	start := time.Now()
	hc, err := newCPUClock(sz.probePasses)
	if err != nil {
		return nil, nil, err
	}
	defer hc.close()
	e := &env{w: w, sz: sz, seed: seed, hc: hc, lc: hc}
	switch w.clock {
	case deviceClock:
		e.lc = newDeviceClock()
	case wallClock:
		e.lc = nil
	}
	defer e.shutdown()
	info := &runInfo{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Samples: map[string]int{}, Wall: map[string]float64{}}
	if w.faults != "" {
		info.Notes = append(info.Notes, "the device is emulated: "+w.faults+" on every read span; latencies follow the paper's response-time model, not a disk")
	}
	info.Notes = append(info.Notes, "reads come from the sandbox's page cache and fsyncs go to the sandbox's volume")

	// Set-up, repeated so setup_s is a median; the last one is served.
	setups := 1
	if trace == 0 {
		setups = sz.setups
	}
	var setupS, setupWall []float64 // on the host clock, and as the wall clock read
	for i := 0; i < setups; i++ {
		e.shutdown()
		if e.lay != nil {
			if err := os.RemoveAll(e.lay.dir); err != nil {
				return nil, nil, err
			}
		}
		e.hc.probeQuiesced()
		t := time.Now()
		if e.lay, err = buildLayout(filepath.Join(work, "layout"+strconv.Itoa(i)), sz.records, seed, w.replicas); err != nil {
			return nil, nil, err
		}
		if err := e.serve(nil); err != nil {
			return nil, nil, err
		}
		wall := time.Since(t).Seconds()
		e.hc.probeQuiesced()
		setupWall = append(setupWall, wall)
		setupS = append(setupS, wall/e.hc.last())
	}
	info.Records, info.Buckets = e.lay.f.Len(), e.lay.f.NumBuckets()
	progress := func(what string, d time.Duration) {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s in %.2fs\n", w.name, seed, what, d.Seconds())
	}
	progress(fmt.Sprintf("%d set-up(s), median %.2fs,", setups, median(setupS)), time.Since(start))

	t := time.Now()
	e.str = newStream(e.lay.f.Domain(), w, sz, seed)
	e.str.expect(e.lay.f, sz.verifyOps)
	e.acked = make([]bool, len(e.str.wkeys))
	info.OpsSHA256 = e.str.sha
	progress("op stream and expected answers", time.Since(t))

	// Warm-up: a fixed count of ops, so its duration is the system's, and
	// part of setup_s.
	if e.lc != nil {
		e.lc.probeQuiesced()
	}
	warm := e.closedLoop(clients, w.warmOps, 0)
	progress(fmt.Sprintf("warm-up of %d ops", w.warmOps), warm.wall)
	warmS := warm.wall.Seconds()
	if e.lc != nil {
		e.lc.probe()
		warmS /= e.lc.last()
	}
	defer func() { progress("whole run", time.Since(start)) }()

	var ms *metricSet
	if trace == 0 {
		ms = newMetricSet(endToEnd)
		segs := make([]*segment, w.windows(seconds))
		slow := make([]float64, len(segs)) // the slowdown across each window, by the workload's clock
		for i := range segs {
			if segs[i], err = e.load(time.Duration(seconds * float64(time.Second) / float64(len(segs)))); err != nil {
				return nil, nil, err
			}
			if slow[i] = 1; e.lc != nil {
				e.lc.probe()
				slow[i] = e.lc.last()
			}
		}
		seg := merge(segs)
		e.endToEnd(ms, info, segs, slow, median(setupS)+warmS)
		info.Wall["setup_s"] = median(setupWall) + warm.wall.Seconds()
		info.HostSlowdown = median(slow)
		progress(fmt.Sprintf("%d windows, slowdown median %.3f (quartiles %.3f),", len(segs), info.HostSlowdown, quartiles(slow)), seg.wall)
		e.guards(seg)
		if seg.open != nil {
			info.Notes = append(info.Notes, fmt.Sprintf("open loop: offered %.0f ops/s, achieved %.1f, generator at most %.2f ms late",
				seg.open.Offered, seg.open.Achieved, float64(seg.open.MaxLag)/1e6))
		}
		if w.writeFrac > 0 {
			if err := e.checkDurability(info); err != nil {
				return nil, nil, err
			}
		}
	} else {
		ms = newMetricSet(perLayer)
		if err := e.layers(ms, info, seconds); err != nil {
			return nil, nil, err
		}
	}

	if e.hc.err != nil {
		return nil, nil, e.hc.err
	}
	info.Failures = e.failures
	rep := &report{
		Correct:   len(e.failures) == 0,
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
		Metrics:   ms.export(),
	}
	return info, rep, nil
}

// serve opens the run's layout and connects the client. traceLog as in the
// package-level serve.
func (e *env) serve(traceLog io.Writer) error {
	sv, err := serve(e.lay.dir, e.w, e.seed, traceLog)
	if err != nil {
		return err
	}
	e.sv = sv
	e.c, err = server.NewClient(server.ClientConfig{
		Addr: sv.srv.Addr().String(), PoolSize: clients, Pipeline: e.w.pipeline,
	})
	return err
}

// shutdown closes the client and the server, cleanly.
func (e *env) shutdown() {
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
	if e.sv != nil {
		e.sv.close()
		e.sv = nil
	}
}

// endToEnd fills in what a user of the system would see. Throughput and
// latency are medians over the run's windows, each window's figures read off
// the host clock: slow[i] is how much slower than the idle sandbox the host
// ran across window i (1 throughout for a wall-clock workload). What the wall
// clock read goes into the run's info line.
func (e *env) endToEnd(ms *metricSet, info *runInfo, segs []*segment, slow []float64, setupS float64) {
	var rate, p50, p99, wallRate, wallP50, wallP99 []float64
	for i, seg := range segs {
		reads := seg.latencies(isRead)
		info.Samples["read"] += len(reads)
		info.Samples["write"] += seg.ops() - len(reads)
		var r, lo, hi float64
		if seg.open != nil {
			// Open loop: latency counts from the intended send time.
			r, lo, hi = seg.open.Achieved, float64(seg.open.Latency.P50)/1e6, float64(seg.open.Latency.P99)/1e6
		} else {
			r, lo, hi = float64(seg.ops())/seg.wall.Seconds(), float64(quantile(reads, 0.50))/1e6, float64(quantile(reads, 0.99))/1e6
		}
		wallRate, wallP50, wallP99 = append(wallRate, r), append(wallP50, lo), append(wallP99, hi)
		rate, p50, p99 = append(rate, r*slow[i]), append(p50, lo/slow[i]), append(p99, hi/slow[i])
	}
	info.Samples["windows"] = len(segs)
	info.Wall["ops_per_s"], info.Wall["read_p50_ms"], info.Wall["read_p99_ms"] = median(wallRate), median(wallP50), median(wallP99)
	ms.set("setup_s", setupS)
	ms.set("ops_per_s", median(rate))
	ms.set("read_p50_ms", median(p50))
	ms.set("read_p99_ms", median(p99))
	stored, err := layoutBytes(e.lay.dir)
	if err != nil {
		e.note("space_amp: %v", err)
	}
	user := (int64(e.lay.f.Len()) + e.ackedCount()) * int64(e.lay.f.Dims()) * 8
	ms.set("space_amp", float64(stored)/float64(user))
	ms.set("peak_rss_mb", peakRSSMB())
}

func (e *env) ackedCount() int64 {
	var n int64
	for _, ok := range e.acked[:min(int(e.nextW.Load()), len(e.acked))] {
		if ok {
			n++
		}
	}
	return n
}

// hitRate is hits over every cache acquire between two snapshots.
func hitRate(seg *segment) (rate, shared float64) {
	b, a := seg.before.Cache, seg.after.Cache
	if b == nil || a == nil {
		return 0, 0
	}
	hits, misses, joins := a.Hits-b.Hits, a.Misses-b.Misses, a.Shared-b.Shared
	if total := float64(hits + misses + joins); total > 0 {
		return float64(hits) / total, float64(joins) / total
	}
	return 0, 0
}

// guards fails the run when the workload has left its regime, so a later
// change cannot silently turn cold-closed into a second hot-closed.
func (e *env) guards(seg *segment) {
	a, b := seg.after, seg.before
	if n := (a.Rejected - b.Rejected) + (a.DeadlineExceeded - b.DeadlineExceeded) + (a.Degraded - b.Degraded); n > 0 {
		e.note("guard: %d queries rejected, expired or degraded", n)
	}
	if !e.sz.guards {
		return
	}
	if hit, _ := hitRate(seg); hit < e.w.hitLo || hit > e.w.hitHi {
		e.note("guard: cache hit rate %.3f outside %s's regime %.2f..%.2f", hit, e.w.name, e.w.hitLo, e.w.hitHi)
	}
	if e.w.faults != "" && a.FaultInjected == b.FaultInjected {
		e.note("guard: no delay was injected; the emulated device is off")
	}
	if seg.open != nil {
		if lag := seg.open.MaxLag; lag > maxLag {
			e.note("guard: load generator ran %.2f ms late (limit %v)", float64(lag)/1e6, maxLag)
		}
		if frac := seg.open.Achieved / seg.open.Offered; frac < 0.95 {
			e.note("guard: achieved %.3f of the offered rate", frac)
		}
	}
}

// maxLag is how late the open-loop generator may run before its latencies
// stop describing the server. The sandbox's timers fire on a ~1.1 ms grid
// and the generator shares two CPUs with the server: 15 s runs here show
// worst cases of 6-20 ms (README.md), so the limit only catches a stall.
const maxLag = 50 * time.Millisecond

// checkDurability ends a write-mix run: every acknowledged insert must be
// found by a point look-up, then again after the store is dropped without a
// checkpoint and reopened through journal replay. With the server quiesced
// the first verifyOps reads are also compared, full result sets, against
// the in-memory grid file brought up to date with the acknowledged inserts.
func (e *env) checkDurability(info *runInfo) error {
	ctx := context.Background()
	keys := e.str.wkeys[:e.nextW.Load()]
	lookups := func(when string) {
		for k, key := range keys {
			if !e.acked[k] {
				continue
			}
			e.attempted.Add(1)
			if pts, _, err := e.c.PointCtx(ctx, key); err != nil || len(pts) == 0 {
				e.fail("acknowledged insert %v lost %s: %d rows, err=%v", key, when, len(pts), err)
			}
		}
	}
	lookups("before the crash")

	e.c.Close()
	e.c = nil
	e.sv.crash()
	e.sv = nil
	if err := e.serve(nil); err != nil {
		return fmt.Errorf("reopening after the crash: %w", err)
	}
	info.Notes = append(info.Notes, fmt.Sprintf("crash without checkpoint: %d acknowledged inserts, %d journaled ops replayed on reopen",
		e.ackedCount(), e.sv.st.WriteCounters().JournalReplays))
	lookups("after replay")

	for k, key := range keys {
		if e.acked[k] {
			if err := e.lay.f.Insert(gridfile.Record{Key: key}); err != nil {
				return err
			}
		}
	}
	for i := range e.str.sets {
		if e.str.write[i] {
			continue
		}
		e.attempted.Add(1)
		op := &e.str.ops[i]
		rows, set := oracle(e.lay.f, op, true)
		if a, err := issue(ctx, e.c, op, true); err != nil || a.rows != rows || a.set != set {
			e.fail("after replay, op %d (%s): %d rows (want %d), sets equal: %v, err=%v", i, op.Kind, a.rows, rows, a.set == set, err)
		}
	}
	return nil
}

// procField reads one numeric field of /proc/self/<file>.
func procField(file, field string) int64 {
	fh, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return v
		}
	}
	return 0
}

// processCPU is the user and system time of every thread of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// procWriteBytes is the bytes this process has caused to be written to the
// storage layer so far.
func procWriteBytes() int64 { return procField("io", "write_bytes") }
