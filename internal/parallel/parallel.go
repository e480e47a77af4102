// Package parallel implements the shared-nothing parallel grid file of
// Section 3.5. The engine follows the paper's SPMD organization: a
// coordinator owns the grid file's scales and directory; data buckets are
// declustered over the workers' local disks; each query is translated by
// the coordinator into per-worker block requests, shipped to the workers,
// which fetch the blocks from their (simulated) disks, filter the qualified
// records, and send them back.
//
// The engine is a cost model, not a concurrent program: a query visits its
// workers one after another on the calling goroutine, and every reported
// time is computed (per-block disk service times from internal/diskmodel
// plus the message costs below), so Tables 4 and 5 are reproducible on any
// host. A worker's answer depends only on its own disks, so the visiting
// order changes no figure; the slowest worker sets the query's disk time,
// as it would with the nodes running side by side. As in the paper, one of
// the nodes doubles as coordinator and worker. The paper's design running
// concurrently over real sockets and files is internal/server.
package parallel

import (
	"fmt"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// The non-disk components of query processing, priced for the SP-2's
// interconnect class: ~0.3 ms per request/reply pair, ~10 MB/s effective
// point-to-point bandwidth.
const (
	// coordPerQuery is the coordinator's cost to translate a query against
	// the scales and directory and schedule the block requests. With a paged
	// directory (Config.DirectoryPageCells) the translation additionally
	// charges dirPageRead per directory page the query touches, replaying
	// the paper's design of keeping scales and directory on the
	// coordinator's local disk.
	coordPerQuery = 3 * time.Millisecond
	// dirPageRead is the cost of one (cached) directory-page fetch on the
	// coordinator's disk.
	dirPageRead = 200 * time.Microsecond
	// msgLatency is the fixed cost of one message (request or reply).
	msgLatency = 150 * time.Microsecond
	// transferPerByte is the per-byte transfer cost on the interconnect.
	transferPerByte = time.Second / (10 << 20)
	// requestBytesPerBlock sizes request payloads (block ids).
	requestBytesPerBlock = 4
	// defaultRecordBytes is Config.RecordBytes when unset.
	defaultRecordBytes = 38
)

// Config assembles an engine. There is one processing node per disk of the
// allocation handed to New.
type Config struct {
	// DisksPerWorker is the number of local disks per node (default 1).
	// The paper's SP-2 had seven disks per processor; a node's buckets are
	// striped over its local disks, which serve a query's blocks in
	// parallel, so the node's disk time is the maximum over its disks.
	DisksPerWorker int
	// Disk parameterizes every local disk; the zero value means
	// diskmodel.DefaultParams().
	Disk diskmodel.Params
	// RecordBytes sizes reply payloads (qualified records; default 38).
	RecordBytes int
	// DirectoryPageCells, when positive, routes the coordinator's query
	// translation through a two-level paged directory with pages of that
	// many cells, charging dirPageRead per page touched. Zero keeps the
	// flat in-memory directory with the constant coordPerQuery cost.
	DirectoryPageCells int
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

// Engine is a parallel grid file: a coordinator plus its workers. Create
// with New, run queries with Query or Run. Not safe for concurrent use.
type Engine struct {
	file        *gridfile.File
	indexByID   []int
	assign      []int // dense bucket index -> worker
	recordBytes int   // reply payload per qualified record

	workers  []*worker
	pagedDir *gridfile.TwoLevelDirectory // nil = flat directory
}

// reply is one worker's answer to a block request.
type reply struct {
	records  int
	hits     int
	diskTime time.Duration
	keys     []float64 // flat, only when requested
}

// worker owns one or more local disks and the record contents of its
// assigned buckets, striped over the disks by block id.
type worker struct {
	disks   []*diskmodel.Disk
	buckets map[int64]bucketData
	perDisk [][]int64 // process's scratch space, reused across requests
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
// allocation, with one worker per disk of the allocation. Bucket contents
// are distributed to the workers according to the allocation.
func New(f *gridfile.File, alloc core.Allocation, cfg Config) (*Engine, error) {
	if cfg.DisksPerWorker < 1 {
		cfg.DisksPerWorker = 1
	}
	if cfg.Disk == (diskmodel.Params{}) {
		cfg.Disk = diskmodel.DefaultParams()
	}
	if cfg.Disk.BlockBytes <= 0 {
		return nil, fmt.Errorf("parallel: disk block size %d", cfg.Disk.BlockBytes)
	}
	if cfg.RecordBytes < 1 {
		cfg.RecordBytes = defaultRecordBytes
	}
	views := f.Buckets()
	if err := alloc.Validate(len(views)); err != nil {
		return nil, err
	}

	e := &Engine{
		file:        f,
		indexByID:   f.IndexByID(),
		assign:      alloc.Assign,
		recordBytes: cfg.RecordBytes,
		workers:     make([]*worker, alloc.Disks),
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
			disks:   disks,
			buckets: make(map[int64]bucketData),
			perDisk: make([][]int64, len(disks)),
		}
	}
	dims := f.Dims()
	for _, v := range views {
		w := e.workers[alloc.Assign[v.Index]]
		w.buckets[int64(v.ID)] = bucketData{
			keys: f.AppendBucketKeys(nil, v.ID),
			dims: dims,
			page: int64(len(w.buckets)), // views arrive in ascending id order
		}
	}
	return e, nil
}

// process serves one request for blocks this worker owns (the coordinator
// routes by the allocation): fetch them from the local disks (striped by
// local page, served in parallel within the node) and filter the records
// qualified by q, shipping their keys back only when wantKeys is set.
func (w *worker) process(blocks []int64, q geom.Rect, wantKeys bool) reply {
	for i := range w.perDisk {
		w.perDisk[i] = w.perDisk[i][:0]
	}
	for _, b := range blocks {
		page := w.buckets[b].page // the local page, not the global bucket id
		i := int(page % int64(len(w.disks)))
		w.perDisk[i] = append(w.perDisk[i], page)
	}
	var rep reply
	for i, pages := range w.perDisk {
		t, h := w.disks[i].ReadAll(pages)
		rep.hits += h
		if t > rep.diskTime {
			rep.diskTime = t // local disks operate in parallel
		}
	}
	for _, b := range blocks {
		bd := w.buckets[b]
		n := len(bd.keys) / bd.dims
		for i := 0; i < n; i++ {
			key := bd.keys[i*bd.dims : (i+1)*bd.dims]
			if keyInRect(key, q) {
				rep.records++
				if wantKeys {
					rep.keys = append(rep.keys, key...)
				}
			}
		}
	}
	return rep
}

func keyInRect(key []float64, q geom.Rect) bool {
	for d := range q {
		if key[d] < q[d].Lo || key[d] > q[d].Hi {
			return false
		}
	}
	return true
}

// Query costs one range query along the full SPMD path and returns its
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
	// Coordinator: translate the query into per-worker block lists using
	// the scales and directory.
	var ids []int32
	coordExtra := time.Duration(0)
	if e.pagedDir != nil {
		e.pagedDir.ResetCounters()
		ids = e.pagedDir.BucketsInRange(e.file, q)
		coordExtra = time.Duration(e.pagedDir.PageAccesses) * dirPageRead
	} else {
		ids = e.file.BucketsInRange(q)
	}
	perWorker := make([][]int64, len(e.workers))
	for _, id := range ids {
		dense := e.indexByID[id]
		if dense < 0 {
			return QueryResult{}, nil, fmt.Errorf("parallel: bucket %d not allocated", id)
		}
		w := e.assign[dense]
		perWorker[w] = append(perWorker[w], int64(id))
	}

	// Each worker with blocks to fetch costs one request and one reply
	// message; the slowest of them sets the query's disk time.
	var res QueryResult
	var keys []float64
	var maxDisk time.Duration
	for w, blocks := range perWorker {
		if len(blocks) == 0 {
			continue
		}
		rep := e.workers[w].process(blocks, q, wantKeys)
		res.Blocks += len(blocks)
		res.Records += rep.records
		res.CacheHits += rep.hits
		keys = append(keys, rep.keys...)
		if len(blocks) > res.ResponseBlocks {
			res.ResponseBlocks = len(blocks)
		}
		if rep.diskTime > maxDisk {
			maxDisk = rep.diskTime
		}
		res.Comm += 2 * msgLatency
		res.Comm += time.Duration(len(blocks)*requestBytesPerBlock) * transferPerByte
		res.Comm += time.Duration(rep.records*e.recordBytes) * transferPerByte
	}
	res.Elapsed = coordPerQuery + coordExtra + maxDisk + res.Comm
	return res, keys, nil
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
