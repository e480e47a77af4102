// Package parallel implements the shared-nothing parallel grid file of
// Section 3.5. The engine follows the paper's SPMD organization: a
// coordinator owns the grid file's scales and directory; data buckets are
// declustered over the workers' local disks; each query is translated by
// the coordinator into per-worker block requests, shipped to the workers,
// which fetch the blocks from their (simulated) disks, filter the qualified
// records, and send them back.
//
// Workers are real goroutines exchanging messages over channels — the
// engine genuinely runs in parallel — but all reported times come from the
// deterministic cost model (per-block disk service times from
// internal/diskmodel plus a message-passing cost model), so Tables 4 and 5
// are reproducible on any host. As in the paper, one of the nodes doubles
// as coordinator and worker.
package parallel

import (
	"fmt"
	"sync"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// CostModel prices the non-disk components of query processing.
type CostModel struct {
	// CoordPerQuery is the coordinator's cost to translate a query against
	// the scales and directory and schedule the block requests. When the
	// engine is configured with a paged directory (Config.DirectoryPageCells),
	// the translation additionally charges DirPageRead per directory page
	// the query touches, replaying the paper's design of keeping scales and
	// directory on the coordinator's local disk.
	CoordPerQuery time.Duration
	// DirPageRead is the cost of one directory-page fetch on the
	// coordinator's disk (used only with a paged directory).
	DirPageRead time.Duration
	// MsgLatency is the fixed cost of one message (request or reply).
	MsgLatency time.Duration
	// BytePerSecondInverse is the per-byte transfer cost on the interconnect.
	TransferPerByte time.Duration
	// RecordBytes sizes reply payloads (qualified records).
	RecordBytes int
	// RequestBytesPerBlock sizes request payloads (block ids).
	RequestBytesPerBlock int
}

// DefaultCostModel models the SP-2's interconnect class: ~0.3 ms message
// latency, ~10 MB/s effective point-to-point bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{
		CoordPerQuery:        3 * time.Millisecond,
		DirPageRead:          200 * time.Microsecond, // cached directory page
		MsgLatency:           150 * time.Microsecond,
		TransferPerByte:      time.Second / (10 << 20),
		RecordBytes:          38,
		RequestBytesPerBlock: 4,
	}
}

// Config assembles an engine.
type Config struct {
	// Workers is the number of processing nodes.
	Workers int
	// DisksPerWorker is the number of local disks per node (default 1).
	// The paper's SP-2 had seven disks per processor; a node's buckets are
	// striped over its local disks, which serve a query's blocks in
	// parallel, so the node's disk time is the maximum over its disks.
	DisksPerWorker int
	// Disk parameterizes every local disk.
	Disk diskmodel.Params
	// Cost prices coordination and communication.
	Cost CostModel
	// DirectoryPageCells, when positive, routes the coordinator's query
	// translation through a two-level paged directory with pages of that
	// many cells, charging Cost.DirPageRead per page touched. Zero keeps
	// the flat in-memory directory with the constant CoordPerQuery cost.
	DirectoryPageCells int
	// Faults, when non-nil, is consulted for every coordinator↔worker
	// message at the fault.SiteParallelSend / SiteParallelRecv sites: an
	// injected delay stalls the message, an injected error drops it and
	// fails the query. Underlying exchanges that did happen are always
	// completed, so the engine stays usable after an injected drop.
	Faults *fault.Registry
}

// QueryResult reports one query's execution.
type QueryResult struct {
	// Blocks is the total number of blocks fetched across workers.
	Blocks int
	// ResponseBlocks is the paper's response time in blocks:
	// max over workers of blocks fetched.
	ResponseBlocks int
	// Records is the number of qualified records returned.
	Records int
	// Elapsed is the simulated wall time: coordination + slowest worker's
	// disk service + communication.
	Elapsed time.Duration
	// Comm is the simulated communication component.
	Comm time.Duration
	// CacheHits counts block fetches served from worker caches.
	CacheHits int
}

// Totals aggregates a workload run (the rows of Tables 4 and 5).
type Totals struct {
	Queries        int
	Blocks         int
	ResponseBlocks int // Σ_q max_w blocks_w(q): "response time by definition"
	Records        int
	Elapsed        time.Duration
	Comm           time.Duration
	CacheHits      int
}

// Add accumulates one query's result.
func (t *Totals) Add(r QueryResult) {
	t.Queries++
	t.Blocks += r.Blocks
	t.ResponseBlocks += r.ResponseBlocks
	t.Records += r.Records
	t.Elapsed += r.Elapsed
	t.Comm += r.Comm
	t.CacheHits += r.CacheHits
}

// Engine is a running parallel grid file: a coordinator plus worker
// goroutines. Create with New, run queries with Query or Run, release the
// worker goroutines with Close.
type Engine struct {
	cfg       Config
	file      *gridfile.File
	indexByID []int
	assign    []int // dense bucket index -> worker

	workers  []*worker
	reqs     []chan request
	pagedDir *gridfile.TwoLevelDirectory // nil = flat directory
	wg       sync.WaitGroup
	closed   bool

	// mu serializes the coordinator's directory translation (the grid
	// file's range search reuses scratch space). Worker-side processing
	// still overlaps across workers when queries arrive concurrently via
	// RunConcurrent.
	mu sync.Mutex
}

// request asks one worker to fetch blocks and filter records for a query.
type request struct {
	blocks   []int64
	query    geom.Rect
	wantKeys bool // ship the qualified keys back, not just their count
	reply    chan<- reply
}

type reply struct {
	worker   int
	blocks   int
	records  int
	hits     int
	diskTime time.Duration
	keys     []float64 // flat, only when requested
}

// worker owns one or more local disks and the record contents of its
// assigned buckets, striped over the disks by block id.
type worker struct {
	id      int
	disks   []*diskmodel.Disk
	buckets map[int64]bucketData
}

type bucketData struct {
	keys []float64 // flat
	dims int
	// page is the bucket's position in the worker's local physical layout
	// (dense, ascending bucket id — the order store.Write lays pages out).
	// Disk reads address local pages, so batches touching neighbouring
	// local pages can be served sequentially by elevator scheduling.
	page int64
}

// New builds an engine over a loaded grid file and a declustering
// allocation whose disk count equals cfg.Workers. Bucket contents are
// distributed to the workers according to the allocation.
func New(f *gridfile.File, alloc core.Allocation, cfg Config) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parallel: %d workers", cfg.Workers)
	}
	if cfg.DisksPerWorker < 1 {
		cfg.DisksPerWorker = 1
	}
	if alloc.Disks != cfg.Workers {
		return nil, fmt.Errorf("parallel: allocation has %d disks, engine has %d workers",
			alloc.Disks, cfg.Workers)
	}
	views := f.Buckets()
	if err := alloc.Validate(len(views)); err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:       cfg,
		file:      f,
		indexByID: f.IndexByID(),
		assign:    alloc.Assign,
		workers:   make([]*worker, cfg.Workers),
		reqs:      make([]chan request, cfg.Workers),
	}
	if cfg.DirectoryPageCells > 0 {
		dir, err := gridfile.NewTwoLevelDirectory(f, cfg.DirectoryPageCells)
		if err != nil {
			return nil, err
		}
		e.pagedDir = dir
	}
	for w := range e.workers {
		disks := make([]*diskmodel.Disk, cfg.DisksPerWorker)
		for i := range disks {
			disks[i] = diskmodel.New(cfg.Disk)
		}
		e.workers[w] = &worker{
			id:      w,
			disks:   disks,
			buckets: make(map[int64]bucketData),
		}
	}
	dims := f.Dims()
	for _, v := range views {
		w := e.workers[alloc.Assign[v.Index]]
		keys := make([]float64, 0, v.Records*dims)
		f.ForEachRecordInBucket(v.ID, func(key []float64, _ []byte) {
			keys = append(keys, key...)
		})
		w.buckets[int64(v.ID)] = bucketData{
			keys: keys,
			dims: dims,
			page: int64(len(w.buckets)), // views arrive in ascending id order
		}
	}

	// Launch the SPMD workers.
	for w := range e.workers {
		e.reqs[w] = make(chan request)
		e.wg.Add(1)
		go e.workers[w].run(e.reqs[w], &e.wg)
	}
	return e, nil
}

// run is the worker loop.
func (w *worker) run(reqs <-chan request, wg *sync.WaitGroup) {
	defer wg.Done()
	perDisk := make([][]int64, len(w.disks))
	for req := range reqs {
		req.reply <- w.process(req, perDisk)
	}
}

// process serves one block request: fetch the blocks from the local disks
// (striped by block id, served in parallel within the node) and filter the
// qualified records. perDisk is the caller's scratch space, reused across
// requests.
func (w *worker) process(req request, perDisk [][]int64) reply {
	for i := range perDisk {
		perDisk[i] = perDisk[i][:0]
	}
	for _, b := range req.blocks {
		// Address the local page, not the global bucket id; blocks not
		// owned here (wasted fetches) keep their global address.
		page := b
		if bd, ok := w.buckets[b]; ok {
			page = bd.page
		}
		i := int(page % int64(len(w.disks)))
		perDisk[i] = append(perDisk[i], page)
	}
	var diskTime time.Duration
	hits := 0
	for i, blocks := range perDisk {
		t, h := w.disks[i].ReadAll(blocks)
		hits += h
		if t > diskTime {
			diskTime = t // local disks operate in parallel
		}
	}
	records := 0
	var keys []float64
	for _, b := range req.blocks {
		bd, ok := w.buckets[b]
		if !ok {
			continue // block not owned here: counted as a wasted fetch
		}
		n := len(bd.keys) / bd.dims
		for i := 0; i < n; i++ {
			key := bd.keys[i*bd.dims : (i+1)*bd.dims]
			if keyInRect(key, req.query) {
				records++
				if req.wantKeys {
					keys = append(keys, key...)
				}
			}
		}
	}
	return reply{
		worker:   w.id,
		blocks:   len(req.blocks),
		records:  records,
		hits:     hits,
		diskTime: diskTime,
		keys:     keys,
	}
}

func keyInRect(key []float64, q geom.Rect) bool {
	for d := range q {
		if key[d] < q[d].Lo || key[d] > q[d].Hi {
			return false
		}
	}
	return true
}

// Query executes one range query through the full SPMD path and returns its
// simulated execution profile.
func (e *Engine) Query(q geom.Rect) (QueryResult, error) {
	res, _, err := e.query(q, false)
	return res, err
}

// QueryRecords additionally ships the qualified records back to the
// coordinator, as the paper's system does ("send the set of qualified
// records back to the coordinator processor"), and assembles them.
func (e *Engine) QueryRecords(q geom.Rect) ([]geom.Point, QueryResult, error) {
	res, keys, err := e.query(q, true)
	if err != nil {
		return nil, QueryResult{}, err
	}
	dims := e.file.Dims()
	out := make([]geom.Point, 0, len(keys)/dims)
	for i := 0; i+dims <= len(keys); i += dims {
		out = append(out, geom.Point(keys[i:i+dims:i+dims]))
	}
	return out, res, nil
}

func (e *Engine) query(q geom.Rect, wantKeys bool) (QueryResult, []float64, error) {
	if e.closed {
		return QueryResult{}, nil, fmt.Errorf("parallel: engine closed")
	}
	// Coordinator: translate the query into per-worker block lists using
	// the scales and directory. The translation shares scratch state in
	// the grid file, so it is serialized.
	e.mu.Lock()
	var ids []int32
	coordExtra := time.Duration(0)
	if e.pagedDir != nil {
		e.pagedDir.ResetCounters()
		ids = e.pagedDir.BucketsInRange(e.file, q)
		coordExtra = time.Duration(e.pagedDir.PageAccesses) * e.cfg.Cost.DirPageRead
	} else {
		ids = e.file.BucketsInRange(q)
	}
	perWorker := make([][]int64, e.cfg.Workers)
	for _, id := range ids {
		dense := e.indexByID[id]
		if dense < 0 {
			e.mu.Unlock()
			return QueryResult{}, nil, fmt.Errorf("parallel: bucket %d not allocated", id)
		}
		w := e.assign[dense]
		perWorker[w] = append(perWorker[w], int64(id))
	}
	e.mu.Unlock()

	// Ship requests to the active workers and gather replies. A dropped
	// request skips that worker entirely; a dropped reply is still taken
	// off the channel. Either way the query fails with the injected error
	// only after every in-flight exchange has been collected, so the
	// engine survives the fault.
	replyCh := make(chan reply, e.cfg.Workers)
	active := 0
	var injErr error
	for w, blocks := range perWorker {
		if len(blocks) == 0 {
			continue
		}
		if err := e.evalFault(fault.SiteParallelSend); err != nil {
			injErr = err
			continue
		}
		active++
		e.reqs[w] <- request{blocks: blocks, query: q, wantKeys: wantKeys, reply: replyCh}
	}

	var res QueryResult
	var keys []float64
	var maxDisk time.Duration
	cm := e.cfg.Cost
	for i := 0; i < active; i++ {
		rep := <-replyCh
		if err := e.evalFault(fault.SiteParallelRecv); err != nil {
			if injErr == nil {
				injErr = err
			}
			continue
		}
		res.Blocks += rep.blocks
		res.Records += rep.records
		res.CacheHits += rep.hits
		keys = append(keys, rep.keys...)
		if rep.blocks > res.ResponseBlocks {
			res.ResponseBlocks = rep.blocks
		}
		if rep.diskTime > maxDisk {
			maxDisk = rep.diskTime
		}
		// Request message + reply message for this worker.
		res.Comm += 2 * cm.MsgLatency
		res.Comm += time.Duration(rep.blocks*cm.RequestBytesPerBlock) * cm.TransferPerByte
		res.Comm += time.Duration(rep.records*cm.RecordBytes) * cm.TransferPerByte
	}
	if injErr != nil {
		return QueryResult{}, nil, injErr
	}
	res.Elapsed = cm.CoordPerQuery + coordExtra + maxDisk + res.Comm
	return res, keys, nil
}

// evalFault consults the engine's failpoint registry at a message site: an
// injected delay stalls the caller (modelling interconnect latency), an
// injected error means the message was dropped.
func (e *Engine) evalFault(site string) error {
	inj, hit := e.cfg.Faults.Eval(site)
	if !hit {
		return nil
	}
	if inj.Delay > 0 {
		time.Sleep(inj.Delay)
	}
	return inj.Err
}

// Run executes a whole workload sequentially (queries are not pipelined,
// matching the paper's experiments) and returns the aggregate totals.
func (e *Engine) Run(queries []geom.Rect) (Totals, error) {
	var t Totals
	for _, q := range queries {
		r, err := e.Query(q)
		if err != nil {
			return Totals{}, err
		}
		t.Add(r)
	}
	return t, nil
}

// RunConcurrent executes the workload with the given number of client
// goroutines issuing queries concurrently — the multi-user regime beyond
// the paper's single-stream experiments. Block and record accounting in the
// returned totals is exact; the summed Elapsed no longer models a serial
// wall clock (in-flight queries overlap at the workers), so callers should
// interpret it as aggregate service demand.
func (e *Engine) RunConcurrent(queries []geom.Rect, clients int) (Totals, error) {
	if clients < 1 {
		clients = 1
	}
	work := make(chan geom.Rect)
	results := make(chan QueryResult, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				r, err := e.Query(q)
				if err != nil {
					errs <- err
					return
				}
				results <- r
			}
		}()
	}

	var t Totals
	done := make(chan struct{})
	go func() {
		for r := range results {
			t.Add(r)
		}
		close(done)
	}()

	var firstErr error
feed:
	for _, q := range queries {
		select {
		case work <- q:
		case firstErr = <-errs:
			break feed
		}
	}
	close(work)
	wg.Wait()
	close(results)
	<-done
	if firstErr != nil {
		return Totals{}, firstErr
	}
	select {
	case err := <-errs:
		return Totals{}, err
	default:
	}
	return t, nil
}

// DropCaches empties every worker's block caches (cold-start experiments).
func (e *Engine) DropCaches() {
	for _, w := range e.workers {
		for _, d := range w.disks {
			d.DropCache()
		}
	}
}

// DiskStats returns each worker's accumulated disk statistics, summed over
// the worker's local disks.
func (e *Engine) DiskStats() []diskmodel.Stats {
	out := make([]diskmodel.Stats, len(e.workers))
	for i, w := range e.workers {
		var agg diskmodel.Stats
		for _, d := range w.disks {
			st := d.Stats()
			agg.Reads += st.Reads
			agg.Hits += st.Hits
			agg.SeqReads += st.SeqReads
			agg.BusyTime += st.BusyTime
		}
		out[i] = agg
	}
	return out
}

// BucketsPerWorker returns how many buckets each worker owns.
func (e *Engine) BucketsPerWorker() []int {
	out := make([]int, len(e.workers))
	for i, w := range e.workers {
		out[i] = len(w.buckets)
	}
	return out
}

// Close shuts down the worker goroutines. The engine cannot be used after.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, ch := range e.reqs {
		close(ch)
	}
	e.wg.Wait()
}
