package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/server"
	"pgridfile/internal/sim"
	"pgridfile/internal/store"
)

// layers produces the per-layer metrics of a -trace 1 run, all measured from
// outside the program: server snapshot deltas and runtime counters across an
// untraced stretch of the workload, stage medians from a traced stretch of
// the same op stream, and the harness's own timing around calls into each
// layer's exported functions while it replays the stream single-threaded.
func (e *env) layers(ms *metricSet, info *runInfo, seconds float64) error {
	total := time.Duration(seconds * float64(time.Second))
	// Per-layer timings are as the wall clock read them. One CPU probe after
	// each phase says how slow the host was meanwhile (host.go), for a reader
	// who compares them across runs.
	first := len(e.hc.probes) - 1 // the latest CPU probe: after the warm-up, or the set-up
	defer func() {
		e.hc.probe()
		ms.set("host.slowdown", median(e.hc.probes[first:]))
	}()

	// Untraced: counts and ratios, because traced requests bypass the
	// scheduler's window merging.
	plain, err := e.load(total / 2)
	if err != nil {
		return err
	}
	e.hc.probe()
	e.guards(plain)
	e.counts(ms, info, plain)

	// Traced, same load shape: stage medians and the cost of tracing.
	sink := &traceSink{}
	e.shutdown()
	if err := e.serve(sink); err != nil {
		return err
	}
	e.closedLoop(clients, e.w.warmOps, 0) // the new server's cache starts empty
	sink.reset()
	traced, err := e.load(total * 3 / 10)
	if err != nil {
		return err
	}
	e.hc.probe()
	info.Samples["traced"] = traced.ops()
	stages := sink.medians()
	for stage, name := range map[string]string{
		"admission": "server.admission_p50_us", "translate": "server.translate_p50_us",
		"cache": "server.cache_p50_us", "encode": "server.encode_p50_us", "backoff": "server.backoff_p50_us",
		"fetch_wait": "sched.fetch_wait_p50_us", "pread": "store.pread_p50_us", "decode": "store.decode_p50_us",
	} {
		ms.set(name, stages[stage]/1e3)
	}
	if rate := func(s *segment) float64 { return float64(s.ops()) / s.wall.Seconds() }; rate(plain) > 0 {
		ms.set("server.trace_overhead_frac", 1-rate(traced)/rate(plain))
	}

	// Traced, one closed-loop client: with nothing else in flight, what the
	// stages leave unexplained is the hot path the trace does not cover.
	sink.reset()
	solo := e.closedLoop(1, 0, total/5)
	e.hc.probe()
	info.Samples["solo"] = solo.ops()
	soloP50 := float64(quantile(solo.latencies(isRead), 0.5))
	var staged float64
	for stage, v := range sink.medians() {
		// Disk-side stages are summed over the disks a query touched, which
		// work in parallel; a perfectly balanced query waits for 1/disks of it.
		if stage == "fetch_wait" || stage == "pread" || stage == "decode" || stage == "backoff" {
			v /= disks
		}
		staged += v
	}
	ms.set("server.untraced_residual_us", (soloP50-staged)/1e3)
	e.shutdown()

	ms.set("gridfile.build_s", e.lay.buildS)
	ms.set("core.decluster_s", e.lay.declusterS)
	ms.set("replica.place_s", e.lay.placeS)
	ms.set("store.write_layout_s", e.lay.writeS)
	if err := e.replays(ms, soloP50); err != nil {
		return err
	}
	if e.w.writeFrac > 0 {
		return e.writeReplays(ms)
	}
	return nil
}

// counts turns one untraced segment's counter deltas into per-op figures.
func (e *env) counts(ms *metricSet, info *runInfo, seg *segment) {
	a, b := seg.after, seg.before
	ops := float64(seg.ops())
	info.Samples["untraced"] = seg.ops()
	ms.set("store.open_s", e.sv.openS)

	for kind, name := range map[loadgen.OpKind]string{
		loadgen.OpPoint: "client.point_p50_ms", loadgen.OpRange: "client.range_p50_ms",
		loadgen.OpRangeCount: "client.range-count_p50_ms", loadgen.OpPartialMatch: "client.partial_p50_ms",
		loadgen.OpKNN: "client.knn_p50_ms",
	} {
		ms.set(name, float64(quantile(seg.latencies(func(k uint8) bool { return k == uint8(kind) }), 0.5))/1e6)
	}
	writes := seg.latencies(isWrite)
	ms.set("client.write_p50_ms", float64(quantile(writes, 0.5))/1e6)
	ms.set("client.write_p99_ms", float64(quantile(writes, 0.99))/1e6)
	wire := make([]int64, 0, len(seg.samples))
	for _, s := range seg.samples {
		if isRead(s.kind) {
			wire = append(wire, s.lat-s.srv)
		}
	}
	ms.set("client.wire_overhead_us", float64(quantile(wire, 0.5))/1e3)
	if seg.open != nil {
		ms.set("loadgen.max_lag_ms", float64(seg.open.MaxLag)/1e6)
		ms.set("loadgen.achieved_frac", seg.open.Achieved/seg.open.Offered)
	}

	hit, shared := hitRate(seg)
	ms.set("cache.hit_rate", hit)
	ms.set("cache.shared_frac", shared)
	if a.Cache != nil && b.Cache != nil {
		ms.set("cache.evictions_per_op", float64(a.Cache.Evictions-b.Cache.Evictions)/ops)
	}
	ms.set("sched.merged_fetches_per_op", float64(a.MergedFetches-b.MergedFetches)/ops)
	var maxFetch, sumFetch float64
	for d := range a.DiskFetches {
		n := float64(a.DiskFetches[d] - b.DiskFetches[d])
		maxFetch, sumFetch = max(maxFetch, n), sumFetch+n
	}
	if sumFetch > 0 {
		ms.set("sched.disk_imbalance", maxFetch*float64(len(a.DiskFetches))/sumFetch)
	}
	ms.set("store.pages_per_op", float64(a.PagesRead-b.PagesRead)/ops)
	ms.set("fault.injected_per_op", float64(a.FaultInjected-b.FaultInjected)/ops)
	if batches := a.WriteBatches - b.WriteBatches; batches > 0 {
		ms.set("server.write_frames_per_batch", float64(a.WriteFrames-b.WriteFrames)/float64(batches))
	}
	// The client shares the process, so its CPU time and allocations are in
	// here too. On a closed loop both CPUs are busy throughout and the CPU
	// figure is just 2/throughput; on the open loop it is the cost of an op.
	ms.set("server.cpu_us_per_op", float64(seg.cpu.Microseconds())/ops)
	ms.set("server.allocs_per_op", float64(seg.mem[1].Mallocs-seg.mem[0].Mallocs)/ops)
	ms.set("server.alloc_bytes_per_op", float64(seg.mem[1].TotalAlloc-seg.mem[0].TotalAlloc)/ops)
	ms.set("server.rejected", float64(a.Rejected-b.Rejected))
	ms.set("server.deadline_exceeded", float64(a.DeadlineExceeded-b.DeadlineExceeded))
	ms.set("server.disk_retries", float64(a.DiskRetries-b.DiskRetries))
	ms.set("server.degraded", float64(a.Degraded-b.Degraded))

	if a.Writes != nil && b.Writes != nil && a.Writes.Inserts > b.Writes.Inserts {
		n := float64(a.Writes.Inserts - b.Writes.Inserts)
		ms.set("store.journal_appends_per_write", float64(a.Writes.JournalAppends-b.Writes.JournalAppends)/n)
		ms.set("cache.invalidations_per_write", float64(a.Cache.Invalidations-b.Cache.Invalidations)/n)
		ms.set("store.bytes_written_per_user_byte", float64(seg.wbytes[1]-seg.wbytes[0])/(n*float64(e.lay.f.Dims())*8))
	}
}

// traceSink receives the server's per-query trace lines. Write only copies:
// it runs under the server's trace lock, inside the traced run.
type traceSink struct {
	mu  sync.Mutex
	buf []byte
}

func (t *traceSink) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	t.mu.Unlock()
	return len(p), nil
}

func (t *traceSink) reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.mu.Unlock()
}

// medians parses the collected lines ("... admission=90ns translate=1.2µs
// ... buckets=…") and returns each stage's median in nanoseconds.
func (t *traceSink) medians() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	per := map[string][]int64{}
	for _, field := range strings.Fields(string(t.buf)) {
		name, val, ok := strings.Cut(field, "=")
		if !ok || name == "elapsed" {
			continue
		}
		if d, err := time.ParseDuration(val); err == nil {
			per[name] = append(per[name], int64(d))
		}
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = float64(quantile(xs, 0.5))
	}
	return out
}

func request(op *loadgen.Op) server.Request {
	switch op.Kind {
	case loadgen.OpPoint:
		return server.Request{Verb: server.VerbPoint, Key: op.Key}
	case loadgen.OpRange:
		return server.Request{Verb: server.VerbRange, Query: op.Rect}
	case loadgen.OpRangeCount:
		return server.Request{Verb: server.VerbRange, Query: op.Rect, CountOnly: true}
	case loadgen.OpPartialMatch:
		return server.Request{Verb: server.VerbPartial, Vals: op.Key}
	}
	return server.Request{Verb: server.VerbKNN, Key: op.Key, K: op.K}
}

// probe is the box whose buckets the server translates op into: the query
// box itself, a partial match's degenerate box, or a k-NN's first probe (one
// average cell extent around the key; later, wider probes are not replayed).
// A point op has none.
func probe(f *gridfile.File, op *loadgen.Op) geom.Rect {
	dom := f.Domain()
	switch op.Kind {
	case loadgen.OpRange, loadgen.OpRangeCount:
		return op.Rect
	case loadgen.OpPartialMatch:
		q := make(geom.Rect, len(op.Key))
		for d, v := range op.Key {
			q[d] = geom.Interval{Lo: v, Hi: v}
			if math.IsNaN(v) {
				q[d] = dom[d]
			}
		}
		return q
	case loadgen.OpKNN:
		var r float64
		for d, n := range f.CellSizes() {
			r = max(r, dom[d].Length()/float64(n))
		}
		q := make(geom.Rect, len(op.Key))
		for d, v := range op.Key {
			q[d] = geom.Interval{Lo: max(v-r, dom[d].Lo), Hi: min(v+r, dom[d].Hi)}
		}
		return q
	}
	return nil
}

// replays times each read-path layer's exported entry points on the
// workload's own ops, single-threaded, and relates their sum to what one
// client saw end to end (soloP50, ns).
func (e *env) replays(ms *metricSet, soloP50 float64) error {
	f := e.lay.f
	ops := e.str.ops[:min(e.sz.replayOps, len(e.str.ops))]
	heavy := ops[:min(e.sz.heavyOps, len(ops))]
	perOp := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }

	// protocol: request frame out and back in.
	var buf []byte
	rd := bytes.NewReader(nil)
	reqs := make([]server.Request, len(ops))
	for i := range ops {
		reqs[i] = request(&ops[i])
	}
	t := time.Now()
	for i := range reqs {
		var err error
		if buf, err = server.AppendRequestFrame(buf[:0], reqs[i], 0, false); err != nil {
			return err
		}
		rd.Reset(buf)
		fr, err := server.ReadFrame(rd)
		if err != nil {
			return err
		}
		if _, err := server.DecodeRequest(fr); err != nil {
			return err
		}
	}
	ms.set("protocol.req_roundtrip_ns", perOp(time.Since(t), len(reqs)))

	// protocol: result payload out and back in, on the ops' real results.
	var resTime time.Duration
	var resBytes int
	var decoded server.Result
	for i := range heavy {
		op := &heavy[i]
		verb, res := server.VerbPoints, server.Result{Points: matches(f, op)}
		if op.Kind == loadgen.OpRangeCount {
			verb, res = server.VerbCount, server.Result{Count: f.RangeCount(op.Rect)}
		}
		t := time.Now()
		var err error
		if buf, err = server.AppendResult(buf[:0], verb, res); err != nil {
			return err
		}
		if err := server.DecodeResultInto(server.Frame{Verb: verb, Payload: buf}, &decoded); err != nil {
			return err
		}
		resTime += time.Since(t)
		resBytes += len(buf)
	}
	ms.set("protocol.res_roundtrip_ns", perOp(resTime, len(heavy)))
	ms.set("protocol.res_bytes_per_op", float64(resBytes)/float64(len(heavy)))

	// gridfile: query → bucket ids.
	probes := make([]geom.Rect, len(ops))
	for i := range ops {
		probes[i] = probe(f, &ops[i])
	}
	var ids []int32
	starts := make([]int, len(ops)+1) // ids[starts[i]:starts[i+1]] are op i's buckets
	t = time.Now()
	for i := range ops {
		if probes[i] == nil {
			if id, ok := f.BucketAt(ops[i].Key); ok {
				ids = append(ids, id)
			}
		} else {
			ids = f.BucketsInRangeAppend(probes[i], ids)
		}
		starts[i+1] = len(ids)
	}
	ms.set("gridfile.translate_ns", perOp(time.Since(t), len(ops)))
	buckets := float64(len(ids)) / float64(len(ops))
	ms.set("gridfile.buckets_per_query", buckets)

	// cache: Get on a resident bucket, and Get that must load. The loader
	// hands back a pre-decoded bucket, so neither figure includes the store.
	flats := map[int32]geom.Flat{}
	for _, id := range ids {
		if _, ok := flats[id]; !ok {
			fl := geom.Flat{Dims: f.Dims()}
			f.ForEachRecordInBucket(id, func(key []float64, _ []byte) { fl.Coords = append(fl.Coords, key...) })
			flats[id] = fl
		}
	}
	ctx := context.Background()
	gets := func(c *cache.Cache) (time.Duration, error) {
		t := time.Now()
		for _, id := range ids {
			if _, _, err := c.Get(ctx, id, func() (geom.Flat, int, error) { return flats[id], 1, nil }); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	resident := cache.New(hotCache, 0)
	if _, err := gets(resident); err != nil {
		return err
	}
	d, err := gets(resident)
	if err != nil {
		return err
	}
	getHit := perOp(d, len(ids))
	ms.set("cache.get_hit_ns", getHit)
	// A budget below one entry: every Get elects a loader, inserts, evicts.
	if d, err = gets(cache.New(16, 0)); err != nil {
		return err
	}
	getMiss := perOp(d, len(ids))
	ms.set("cache.get_miss_ns", getMiss)

	// store: the per-disk batches the server would submit for each op, read
	// and decoded through a handle of our own (no emulated device: this is
	// the cost of the read path, not of the disk).
	st, err := store.Open(e.lay.dir)
	if err != nil {
		return err
	}
	defer st.Close()
	var tm store.Timing
	var pages int
	batch := make([][]int32, disks)
	out := make([]geom.Flat, 0, 256)
	for i := range heavy {
		for d := range batch {
			batch[d] = batch[d][:0]
		}
		for _, id := range ids[starts[i]:starts[i+1]] {
			pl, ok := st.Placement(id)
			if !ok {
				return fmt.Errorf("store replay: bucket %d has no placement", id)
			}
			batch[pl.Disk] = append(batch[pl.Disk], id)
		}
		for d, b := range batch {
			if len(b) == 0 {
				continue
			}
			for len(out) < len(b) {
				out = append(out, geom.Flat{})
			}
			n, err := st.ReadFlatsFromTimed(ctx, d, b, out[:len(b)], &tm)
			if err != nil {
				return err
			}
			pages += n
		}
	}
	var preadPage, decodePage float64
	if pages > 0 {
		preadPage, decodePage = perOp(tm.Pread, pages), perOp(tm.Decode, pages)
	}
	ms.set("store.pread_ns_per_page", preadPage)
	ms.set("store.decode_ns_per_page", decodePage)

	// Σ(outside-timed layer costs per op) / 1-client end-to-end median: how
	// much of what a client waits for the layers' own entry points explain.
	hit := ms.get("cache.hit_rate")
	sum := ms.get("protocol.req_roundtrip_ns") + ms.get("protocol.res_roundtrip_ns") + ms.get("gridfile.translate_ns") +
		buckets*(hit*getHit+(1-hit)*getMiss) + ms.get("store.pages_per_op")*(preadPage+decodePage)
	if soloP50 > 0 {
		ms.set("layers.sum_over_e2e", sum/soloP50)
	}

	// sim: the paper's metrics for this layout on the workload's range ops,
	// and DM/D on the same grid for the gap the paper claims.
	var ranges []geom.Rect
	for i := range ops {
		if ops[i].Kind == loadgen.OpRange || ops[i].Kind == loadgen.OpRangeCount {
			ranges = append(ranges, ops[i].Rect)
		}
	}
	index := f.IndexByID()
	mm, err := sim.Replay(f, e.lay.alloc, index, ranges)
	if err != nil {
		return err
	}
	ms.set("sim.rt_buckets_mean", mm.MeanResponseTime)
	ms.set("sim.rt_over_optimal", mm.MeanResponseTime/mm.MeanOptimal)
	dmd, err := core.ParseAllocator("DM/D", 1, 0)
	if err != nil {
		return err
	}
	dmdAlloc, err := dmd.Decluster(e.lay.grid, disks)
	if err != nil {
		return err
	}
	dm, err := sim.Replay(f, dmdAlloc, index, ranges)
	if err != nil {
		return err
	}
	ms.set("sim.rt_buckets_mean_dmd", dm.MeanResponseTime)
	ms.set("sim.data_balance_degree", sim.DataBalanceDegree(e.lay.alloc))
	ms.set("sim.closest_pairs_same_disk", float64(sim.ClosestPairsSameDisk(e.lay.grid, e.lay.alloc, nil)))
	return nil
}

// writeReplays times the write path's layers single-threaded on a scratch
// copy of the layout: the grid file's insert and split machinery alone, then
// the store's journaled insert, a forced checkpoint, and a crash-and-replay.
func (e *env) writeReplays(ms *metricSet) error {
	keys := e.str.wkeys[len(e.str.wkeys)-2*e.sz.writeOps:] // the tail: keys the served run never reached
	n := e.sz.writeOps

	// gridfile: InsertTracked on a decoded copy of the grid file as laid out.
	var enc bytes.Buffer
	if _, err := e.lay.f.WriteTo(&enc); err != nil {
		return err
	}
	grid, err := gridfile.Read(&enc)
	if err != nil {
		return err
	}
	splits := 0
	t := time.Now()
	for _, k := range keys {
		r, err := grid.InsertTracked(gridfile.Record{Key: k})
		if err != nil {
			return err
		}
		splits += r.Splits
	}
	ms.set("gridfile.insert_ns", float64(time.Since(t))/float64(len(keys)))
	ms.set("gridfile.splits_per_kwrite", 1000*float64(splits)/float64(len(keys)))

	// store: a fresh copy of the layout as first written.
	dir := filepath.Join(filepath.Dir(e.lay.dir), "scratch")
	defer os.RemoveAll(dir)
	if _, err := store.WriteReplicated(dir, e.lay.f, e.lay.rm, pageBytes); err != nil {
		return err
	}
	st, err := store.OpenWritable(dir)
	if err != nil {
		return err
	}
	st.SetCheckpointEvery(0) // checkpoints only where this replay asks for one
	ctx := context.Background()
	insert := func(keys []geom.Point) error {
		for _, k := range keys {
			if _, err := st.Insert(ctx, k); err != nil {
				st.CloseNoCheckpoint()
				return err
			}
		}
		return nil
	}
	t = time.Now()
	if err := insert(keys[:n]); err != nil {
		return err
	}
	ms.set("store.insert_ns", float64(time.Since(t))/float64(n))
	t = time.Now()
	if err := st.Checkpoint(); err != nil {
		st.CloseNoCheckpoint()
		return err
	}
	ms.set("store.checkpoint_s", time.Since(t).Seconds())
	if err := insert(keys[n:]); err != nil {
		return err
	}
	st.CloseNoCheckpoint()
	t = time.Now()
	if st, err = store.OpenWritable(dir); err != nil {
		return err
	}
	ms.set("store.replay_s", time.Since(t).Seconds())
	ms.set("store.journal_replays", float64(st.WriteCounters().JournalReplays))
	st.Close()
	return nil
}
