package server

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	rpprof "runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/store"
)

// Config tunes a Server. The zero value gets sensible defaults from
// (*Config).withDefaults.
type Config struct {
	// Addr is the TCP listen address; default "127.0.0.1:0" (ephemeral).
	Addr string
	// HTTPAddr, when non-empty, additionally serves /metrics and /healthz
	// over HTTP on that address.
	HTTPAddr string
	// MaxInflight bounds concurrently executing queries (admission
	// control): excess requests wait, exerting backpressure on their
	// connections, and are rejected when their deadline expires while
	// queued. Default 64.
	MaxInflight int
	// QueryTimeout is the per-query deadline covering admission wait and
	// execution. Default 5s.
	QueryTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight queries
	// before force-closing connections. Default 5s.
	DrainTimeout time.Duration
	// CacheBytes bounds the sharded second-chance cache of decoded buckets
	// fronting the page store. 0 selects the default (64 MiB); negative
	// disables caching entirely.
	CacheBytes int64
	// PipelineDepth bounds, per connection, both the response queue between
	// the read and write sides and the number of tagged (pipelined) requests
	// executing concurrently. Beyond it the reader stops draining the
	// socket, backpressuring the client. Default 64.
	PipelineDepth int
	// Pprof, together with HTTPAddr, additionally exposes the standard
	// net/http/pprof profiling handlers under /debug/pprof/ on the same
	// mux, so the serving path can be profiled in place.
	Pprof bool
	// Writable opens the layout for online mutation (OpenDir only): the
	// store is opened via store.OpenWritable — replaying any write-ahead
	// journals left by a crash — and the INSERT/DELETE verbs are accepted.
	// Read-only servers reject the write verbs with a protocol error.
	Writable bool

	// Faults is the failpoint registry threaded into the store's read path
	// and the FAULT admin verb. nil gets a fresh (disarmed) registry, so
	// the admin verb always works; injection costs one atomic load until a
	// rule is armed.
	Faults *fault.Registry
	// FetchRetries is how many times a failed disk batch is retried when
	// the failure is transient (an injected fault).
	// Default 2; -1 disables retries.
	FetchRetries int
	// FetchBackoff is the base of the exponential full-jitter backoff
	// between batch retries. Default 2ms.
	FetchBackoff time.Duration
	// Degraded turns disk-level transient failures (after retries) into
	// partial answers — the response carries the degraded flag and a
	// missed-disk count instead of an error. Off by default: the zero
	// value preserves fail-fast behaviour.
	Degraded bool
	// VerifyChecksums validates every page's CRC-32C during decode. A
	// detected mismatch is treated like a transient disk failure: the read
	// fails over to a surviving replica (r >= 2) or is absorbed as a
	// degraded answer, instead of silently serving corrupt records.
	VerifyChecksums bool
	// ScrubInterval, when positive, runs a background integrity scrub of
	// the whole layout every interval: each pass verifies every page copy
	// against its checksum and repairs corrupt copies from an intact
	// replica (see store.Scrub). ScrubNow runs one pass synchronously
	// regardless of this setting.
	ScrubInterval time.Duration
	// ScrubPause is slept between buckets within one scrub pass, keeping a
	// background scrub low-priority next to live queries. 0 scrubs flat out.
	ScrubPause time.Duration

	// TraceSample enables per-query stage tracing (DESIGN S23) for every
	// n-th data query: 1 traces everything, 0 (the default) disables
	// tracing, and the disabled path allocates nothing. Traced queries feed
	// the per-stage histograms in STATS//metrics, carry pprof labels, and
	// qualify for the slow-query log.
	TraceSample int
	// TraceSlowLog enables the slow-query log: every traced query whose
	// elapsed time is at least TraceSlow prints one structured line to
	// TraceLog. It is a separate switch so a zero TraceSlow ("log every
	// traced query") is expressible while the zero Config stays silent.
	TraceSlowLog bool
	// TraceSlow is the slow-query log threshold.
	TraceSlow time.Duration
	// TraceLog receives slow-query lines; default os.Stderr.
	TraceLog io.Writer

	// slowFetch artificially delays every bucket fetch; test hook for
	// exercising deadlines, admission control and shutdown under load.
	slowFetch time.Duration
	// clock is the time source behind latency and stage-trace measurement;
	// test hook for deterministic timing assertions. Defaults to time.Now.
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // disabled
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 64
	}
	if c.Faults == nil {
		c.Faults = fault.NewRegistry(1)
	}
	if c.FetchRetries == 0 {
		c.FetchRetries = 2
	}
	if c.FetchRetries < 0 {
		c.FetchRetries = 0 // disabled
	}
	if c.FetchBackoff <= 0 {
		c.FetchBackoff = 2 * time.Millisecond
	}
	if c.TraceLog == nil {
		c.TraceLog = os.Stderr
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// Server is a running query service: an acceptor, one handler goroutine per
// connection, and one I/O goroutine per disk file. The grid file acts as
// the coordinator's scales+directory; record data is fetched from the page
// store with real file I/O.
type Server struct {
	cfg    Config
	grid   *gridfile.File
	st     *store.Store
	met    *Metrics
	faults *fault.Registry

	// bcache caches decoded buckets in front of the page store (nil when
	// disabled). Directory translation itself needs no lock: the grid
	// file's query paths are safe for concurrent readers.
	bcache *cache.Cache

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	sem chan struct{}
	// tagSlots is the global budget for extra tagged-request workers: every
	// connection gets one worker for free, and beyond that the fleet of
	// pipelined workers across ALL connections is capped at MaxInflight.
	// Without it, conns×PipelineDepth goroutines pile up behind the
	// admission semaphore and scheduler churn erases the pipelining win.
	tagSlots chan struct{}
	sched    []*diskQueue
	fetchWg  sync.WaitGroup

	// replicated is st.Replicas() > 1: bucket reads choose the least-loaded
	// owner disk and transient per-disk failures fail over to surviving
	// owners before degrading. diskBytes/writeAmp describe the layout's
	// storage overhead (computed once at startup, reported in STATS).
	replicated bool
	diskBytes  int64
	writeAmp   float64

	// writable mirrors st.Writable(): the INSERT/DELETE verbs are accepted
	// and every directory translation runs under the store's grid read-lock,
	// since the grid mutates underneath concurrent queries.
	writable bool

	traceSeq atomic.Uint64 // data-query counter driving trace sampling
	traceMu  sync.Mutex    // serializes slow-query log lines

	mu        sync.Mutex // guards conns, closed
	conns     map[net.Conn]struct{}
	closed    bool
	ownsStore bool

	acceptWg sync.WaitGroup
	connWg   sync.WaitGroup
	scrubWg  sync.WaitGroup
	done     chan struct{}
}

// New starts a server over an already-open grid file (scales + directory)
// and page store. The grid file must be the one the layout was written
// from: every stored bucket is cross-checked against the directory before
// serving starts. The caller keeps ownership of grid and st.
func New(grid *gridfile.File, st *store.Store, cfg Config) (*Server, error) {
	m := st.Manifest()
	if grid.Dims() != m.Dims {
		return nil, fmt.Errorf("server: grid is %d-D, store is %d-D", grid.Dims(), m.Dims)
	}
	views := grid.Buckets()
	if len(views) != len(m.Buckets) {
		return nil, fmt.Errorf("server: grid has %d buckets, store has %d (layout from a different grid file?)",
			len(views), len(m.Buckets))
	}
	for _, v := range views {
		pl, ok := st.Placement(v.ID)
		if !ok {
			return nil, fmt.Errorf("server: bucket %d missing from store", v.ID)
		}
		if pl.Recs != v.Records {
			return nil, fmt.Errorf("server: bucket %d holds %d records in store, %d in grid",
				v.ID, pl.Recs, v.Records)
		}
	}

	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		grid:     grid,
		st:       st,
		met:      newMetrics(m.Disks),
		faults:   cfg.Faults,
		sem:      make(chan struct{}, cfg.MaxInflight),
		tagSlots: make(chan struct{}, cfg.MaxInflight),
		sched:    make([]*diskQueue, m.Disks),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	st.SetFaults(s.faults)
	if cfg.VerifyChecksums {
		st.SetVerify(true)
	}
	s.writable = st.Writable()
	if s.writable && st.Grid() != grid {
		return nil, errors.New("server: a writable store must be served from its own grid (store.Grid())")
	}
	if cfg.CacheBytes > 0 {
		s.bcache = cache.New(cfg.CacheBytes, 0)
		// Every bucket a write makes stale leaves the cache before the write
		// releases the grid lock: a query that translates against the
		// post-split directory must not find the pre-split bucket cached.
		st.SetStaleHook(s.bcache.Invalidate)
	}
	s.replicated = st.Replicas() > 1
	if sizes, err := st.DiskSizes(); err == nil {
		var totalPages, uniquePages int64
		for _, n := range sizes {
			totalPages += n
		}
		for _, pl := range m.Buckets {
			uniquePages += int64(pl.Pages)
		}
		s.diskBytes = totalPages * int64(m.PageBytes)
		if uniquePages > 0 {
			s.writeAmp = float64(totalPages) / float64(uniquePages)
		}
	}

	// One I/O worker per disk file: fetches on the same disk serialize (one
	// head per spindle, as in the paper's model) while distinct disks
	// proceed in parallel — this is where declustering quality becomes
	// real wall-clock parallelism. Each worker drains its submission ring
	// in windows (see sched.go).
	for d := range s.sched {
		q := newDiskQueue()
		s.sched[d] = q
		s.fetchWg.Add(1)
		go s.diskWorker(d, q)
	}

	if cfg.ScrubInterval > 0 {
		s.scrubWg.Add(1)
		go s.scrubLoop()
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.stopFetchers()
		close(s.done)
		s.scrubWg.Wait()
		return nil, err
	}
	s.ln = ln
	s.acceptWg.Add(1)
	go s.acceptLoop()

	if cfg.HTTPAddr != "" {
		if err := s.startHTTP(cfg.HTTPAddr); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// OpenDir opens a layout directory written by store.Write (which embeds the
// grid file as grid.grd) and serves it; Close releases the store. With
// cfg.Writable the store is opened for online mutation — crash-left journals
// are replayed before serving starts — and the server serves directly from
// the store's own (mutable) grid.
func OpenDir(dir string, cfg Config) (*Server, error) {
	var st *store.Store
	var err error
	if cfg.Writable {
		st, err = store.OpenWritable(dir)
	} else {
		st, err = store.Open(dir)
	}
	if err != nil {
		return nil, err
	}
	grid := st.Grid()
	if grid == nil {
		grid, err = st.OpenGrid()
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("server: %w (layouts written before grid embedding must be re-laid out)", err)
		}
	}
	s, err := New(grid, st, cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	s.ownsStore = true
	return s, nil
}

// Addr returns the TCP address the server listens on.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// HTTPAddr returns the metrics endpoint address, or nil if disabled.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Snapshot returns the server's current statistics.
func (s *Server) Snapshot() Snapshot {
	snap := s.met.snapshot(len(s.sem))
	snap.Dims = s.grid.Dims()
	snap.Disks = s.st.Manifest().Disks
	snap.Domain = s.st.Manifest().Domain
	snap.Replicas = s.st.Replicas()
	snap.DiskBytes = s.diskBytes
	snap.WriteAmp = s.writeAmp
	snap.FaultInjected = s.faults.Total()
	if s.bcache != nil {
		st := s.bcache.Stats()
		snap.Cache = &st
	}
	if s.writable {
		wc := s.st.WriteCounters()
		snap.Writes = &wc
	}
	return snap
}

// ScrubNow runs one synchronous integrity scrub over the layout (see
// store.Scrub) and folds its counts into the scrub_pages / scrub_corrupt /
// scrub_repaired counters. The background loop started by ScrubInterval
// calls it on every tick; tests and harnesses call it directly for a
// deterministic pass.
func (s *Server) ScrubNow(ctx context.Context) (store.ScrubStats, error) {
	st, err := s.st.Scrub(ctx, s.cfg.ScrubPause)
	s.met.scrubPages.Add(st.Pages)
	s.met.scrubCorrupt.Add(st.Corrupt)
	s.met.scrubRepaired.Add(st.Repaired)
	return st, err
}

// scrubLoop is the low-priority background scrubber: one full pass per
// ScrubInterval tick, cancelled promptly on shutdown.
func (s *Server) scrubLoop() {
	defer s.scrubWg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.done
		cancel()
	}()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.ScrubNow(ctx)
		}
	}
}

// FaultStatus is the JSON payload of a VerbFaultReply: the registry's seed,
// lifetime injection count, and every armed rule with its counters.
type FaultStatus struct {
	Seed     int64              `json:"seed"`
	Injected int64              `json:"injected_total"`
	Sites    []fault.SiteStatus `json:"sites,omitempty"`
}

// handleFault executes one FAULT admin command: "status" reports the armed
// rules, "clear" disarms them all, and anything else is parsed as a fault
// spec and armed on top of the current rules. Every command answers with
// the post-command status.
func (s *Server) handleFault(cmd string) ([]byte, error) {
	switch cmd {
	case "status":
	case "clear":
		s.faults.Clear()
	default:
		if err := s.faults.SetSpec(cmd); err != nil {
			return nil, err
		}
	}
	return json.Marshal(FaultStatus{
		Seed:     s.faults.Seed(),
		Injected: s.faults.Total(),
		Sites:    s.faults.Status(),
	})
}

func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.Snapshot().writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(s.met.start).Seconds(),
		})
	})
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return nil
}

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWg.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// respBufPool pools fully encoded response frames on their way from a
// dispatching goroutine to the connection writer. Buffers above
// maxPooledRespBuf are dropped on return so one huge point-set reply cannot
// pin memory for the life of the pool.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledRespBuf = 64 << 10

func getRespBuf() *[]byte { return respBufPool.Get().(*[]byte) }

func putRespBuf(bp *[]byte) {
	if cap(*bp) > maxPooledRespBuf {
		return
	}
	respBufPool.Put(bp)
}

// connReadBufBytes sizes the per-connection buffered reader. Requests are
// tens of bytes, so one read syscall typically drains a whole pipeline
// window instead of paying two syscalls (header + payload) per frame.
const connReadBufBytes = 16 << 10

// maxWriteBatch bounds how many queued responses one writev submits.
const maxWriteBatch = 64

// connIdleTimeout closes a connection that sends no frame for this long.
const connIdleTimeout = 2 * time.Minute

// handleConn serves one client connection with decoupled read and write
// sides (DESIGN S26). The reader decodes frames and dispatches them; fully
// encoded responses flow through a bounded queue to a writer goroutine that
// coalesces adjacent responses into a single writev. Untagged requests are
// executed inline in the reader, which preserves the strict
// one-request/one-response ordering pre-pipelining clients rely on; tagged
// (pipelined) requests execute concurrently — up to PipelineDepth per
// connection — and may complete out of order, which is exactly what the
// echoed request id is for. Connections run with TCP_NODELAY, Go's default
// for TCP: the frames are small and latency-sensitive, and the batched
// writev path already coalesces adjacent responses (DESIGN S26).
//
// A frame-level error (desynchronized or hostile stream) is answered and
// closes the connection; a request-level error is answered and the
// connection kept.
func (s *Server) handleConn(c net.Conn) {
	depth := s.cfg.PipelineDepth
	respCh := make(chan connResp, depth)
	writerDone := make(chan struct{})
	var writeFailed atomic.Bool
	go s.connWriter(c, respCh, &writeFailed, writerDone)

	// Tagged requests execute on a per-connection worker pool, grown lazily
	// up to depth goroutines. The work channel is unbuffered, so when every
	// worker is busy the reader blocks here — that bounds both concurrent
	// execution and (since each worker holds at most one encoded response)
	// the number of responses ever in flight, and enqueueing can never
	// deadlock against the queue bound.
	work := make(chan *taggedBatch)
	spread := make(chan *taggedBatch)
	workers := 0
	var inflight sync.WaitGroup

	defer s.connWg.Done()
	defer s.dropConn(c)
	defer func() {
		// Teardown order matters: release the workers (they hold references
		// to respCh), wait for them to drain, close the queue, and only
		// after the writer has flushed and exited close the connection.
		close(work)
		inflight.Wait()
		close(respCh)
		<-writerDone
	}()

	// sendError enqueues an error reply for stream-level failures that have
	// no decodable request behind them.
	sendError := func(msg string) {
		bp := getRespBuf()
		*bp = appendErrorFrame((*bp)[:0], msg, 0, false)
		respCh <- connResp{bp: bp, frames: 1}
	}

	br := bufio.NewReaderSize(c, connReadBufBytes)
	// Frames are read into pooled buffers. An untagged frame is served inline
	// and its buffer reused for the next read; a tagged frame's buffer moves
	// to the worker, which recycles it once the request is decoded and served.
	rbuf := getRespBuf()
	defer func() { putRespBuf(rbuf) }()
	for {
		c.SetReadDeadline(time.Now().Add(connIdleTimeout))
		f, err := readFrameBuf(br, rbuf)
		if err != nil {
			if errors.Is(err, ErrFrameTooBig) || errors.Is(err, ErrEmptyFrame) {
				s.met.errors.Add(1)
				sendError(err.Error())
			}
			return
		}
		if writeFailed.Load() {
			return
		}
		if f.Verb == VerbTagged {
			id, inner, uerr := UnwrapTagged(f)
			if uerr != nil {
				// A malformed envelope means ids can no longer be trusted;
				// treat it like a desynchronized stream.
				s.met.errors.Add(1)
				sendError(uerr.Error())
				return
			}
			// Batch the dispatch: every complete tagged frame already
			// sitting in the read buffer rides the same handoff, so a burst
			// of pipelined requests costs one worker wakeup — and, since the
			// worker encodes the whole batch into one buffer, one response
			// enqueue — instead of one per request.
			batch := batchPool.Get().(*taggedBatch)
			batch.works[0] = taggedWork{id: id, f: inner, buf: rbuf}
			batch.n = 1
			rbuf = getRespBuf() // the worker owns the old buffer now
			streamErr := ""
			for batch.n < len(batch.works) && nextTaggedBuffered(br) {
				f, err := readFrameBuf(br, rbuf)
				if err != nil {
					streamErr = err.Error()
					break
				}
				id, inner, uerr := UnwrapTagged(f)
				if uerr != nil {
					streamErr = uerr.Error()
					break
				}
				batch.works[batch.n] = taggedWork{id: id, f: inner, buf: rbuf}
				batch.n++
				rbuf = getRespBuf()
			}
			// Hand the batch off to a worker; grow the pool only within
			// budget: the first worker is free (every connection can always
			// make progress); extra workers draw from the server-wide
			// tagSlots budget, so the total pipelined-worker count stays
			// bounded by conns+MaxInflight no matter how many connections
			// pipeline deeply. The pool ramps toward the batch size so a
			// multi-request batch has idle siblings to spread across when
			// its requests turn out to be expensive; growth is one-time
			// (workers persist until the connection closes), so steady
			// state pays nothing here.
			need := batch.n
			if need > depth {
				need = depth
			}
			for workers < need && (workers == 0 || s.tryTagSlot()) {
				workers++
				inflight.Add(1)
				go s.taggedWorker(work, spread, respCh, &inflight, workers > 1)
			}
			select {
			case work <- batch:
			case <-s.done:
				return
			}
			if streamErr != "" {
				s.met.errors.Add(1)
				sendError(streamErr)
				return
			}
		} else {
			bp := getRespBuf()
			*bp = s.serveFrame((*bp)[:0], f, 0, false)
			respCh <- connResp{bp: bp, frames: 1}
		}
		select {
		case <-s.done:
			return // draining: finish the in-flight replies, then hang up
		default:
		}
	}
}

// taggedWork is one pipelined request in flight from a connection's reader to
// its worker pool: the decoded envelope plus the pooled buffer backing the
// frame's payload, recycled by the worker after serving.
type taggedWork struct {
	id  uint32
	f   Frame
	buf *[]byte
}

// taggedBatch groups the tagged requests one reader pass drained from its
// connection's buffer: one handoff to a worker, one encoded response buffer
// back. Its capacity caps how many requests serve serially on one worker, so
// a batch never serializes more work than one bufio refill delivers.
type taggedBatch struct {
	n     int
	works [16]taggedWork
}

var batchPool = sync.Pool{New: func() any { return new(taggedBatch) }}

// nextTaggedBuffered reports whether a complete, well-formed-length tagged
// frame is already sitting in br's buffer, so reading it cannot block. An
// untagged or malformed next frame stops the batch and is left for the
// reader's main loop to handle.
func nextTaggedBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false // Peek past Buffered would block on the socket
	}
	hdr, err := br.Peek(5)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameBytes || Verb(hdr[4]) != VerbTagged {
		return false
	}
	return br.Buffered() >= 4+int(n)
}

// tryTagSlot claims one global pipelined-worker slot without blocking.
func (s *Server) tryTagSlot() bool {
	select {
	case s.tagSlots <- struct{}{}:
		return true
	default:
		return false
	}
}

// taggedWorker serves tagged request batches for one connection until the
// work channel closes. Workers never block each other: each serves one batch
// at a time, encoding every response in the batch into a single buffer, and
// parks on the (bounded) response queue only while the writer drains. A
// slotted worker returns its tagSlots token on exit.
//
// A worker holding a multi-request batch offers half of what remains to an
// idle sibling before each serve (steal-half work spreading, via a
// non-blocking send on the spread channel); see the loop body for how that
// adapts between overlapping expensive requests and batch-encoding cheap
// ones. The spread channel is separate from work — and never closed — so a worker
// mid-offer can never race the reader closing the work channel at teardown;
// it is unbuffered, so a batch moves across it only by direct handoff to a
// parked sibling and nothing is ever stranded in it.
func (s *Server) taggedWorker(work <-chan *taggedBatch, spread chan *taggedBatch, respCh chan<- connResp, inflight *sync.WaitGroup, slotted bool) {
	defer inflight.Done()
	if slotted {
		defer func() { <-s.tagSlots }()
	}
	for {
		var batch *taggedBatch
		select {
		case b, ok := <-work:
			if !ok {
				return
			}
			batch = b
		case batch = <-spread:
		}
		bp := getRespBuf()
		out := (*bp)[:0]
		served := 0
		for i := 0; i < batch.n; i++ {
			// Before each serve, offer half of what remains to an idle
			// sibling (steal-half). In the cache-cold phase — where each
			// request waits on disk — siblings are parked and the batch
			// halves recursively down to singles, keeping fetches
			// overlapped instead of serialized behind one worker. When
			// requests are cheap every sibling is busy, the offer fails
			// for the cost of one channel poll, and the whole batch is
			// encoded into a single buffer — exactly when serial is
			// fastest.
			if rem := batch.n - i; rem > 1 {
				half := rem / 2
				rest := batchPool.Get().(*taggedBatch)
				rest.n = copy(rest.works[:], batch.works[batch.n-half:batch.n])
				select {
				case spread <- rest:
					for j := batch.n - half; j < batch.n; j++ {
						batch.works[j] = taggedWork{}
					}
					batch.n -= half
				default:
					rest.n = 0
					batchPool.Put(rest)
				}
			}
			tw := &batch.works[i]
			out = s.serveFrame(out, tw.f, tw.id, true)
			putRespBuf(tw.buf)
			batch.works[i] = taggedWork{}
			served++
		}
		*bp = out
		batch.n = 0
		batchPool.Put(batch)
		respCh <- connResp{bp: bp, frames: served}
	}
}

// connResp is one encoded response buffer headed for a connection's writer,
// with the number of wire frames it holds: a tagged worker packs a whole
// request batch's replies into one buffer.
type connResp struct {
	bp     *[]byte
	frames int
}

// connWriter drains one connection's response queue. Each pass takes
// everything immediately available (up to maxWriteBatch buffers) and submits
// it as a single writev via net.Buffers, so under pipelined load adjacent
// responses coalesce into one syscall instead of one each. After a write
// error the writer keeps draining and recycling buffers — dispatchers must
// never block on a dead connection — and closes the conn to unblock the
// reader.
func (s *Server) connWriter(c net.Conn, respCh <-chan connResp, failed *atomic.Bool, done chan<- struct{}) {
	defer close(done)
	batch := make([]connResp, 0, maxWriteBatch)
	iov := make(net.Buffers, 0, maxWriteBatch)
	for {
		r, ok := <-respCh
		if !ok {
			return
		}
		batch = append(batch[:0], r)
		open := true
	drain:
		for len(batch) < maxWriteBatch {
			select {
			case r, ok := <-respCh:
				if !ok {
					open = false
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		if !failed.Load() {
			// WriteTo consumes its receiver, so rebuild the iovec from the
			// batch each pass; the buffers themselves are not copied.
			iov = iov[:0]
			frames := 0
			for _, r := range batch {
				iov = append(iov, *r.bp)
				frames += r.frames
			}
			c.SetWriteDeadline(time.Now().Add(s.cfg.QueryTimeout))
			if _, err := iov.WriteTo(c); err != nil {
				failed.Store(true)
				c.Close()
			} else {
				s.met.writeBatches.Add(1)
				s.met.writeFrames.Add(int64(frames))
			}
		}
		for _, r := range batch {
			putRespBuf(r.bp)
		}
		if !open {
			return
		}
	}
}

// qstate is the pooled per-query scratch: the decoded request plus the
// bucket-id and arena-record slices query execution scans over. Pooling it
// keeps the steady-state serving path allocation-free.
type qstate struct {
	req  Request
	ids  []int32
	recs []geom.Flat
}

var qstatePool = sync.Pool{New: func() any { return new(qstate) }}

// serveAdmin answers the STATS and FAULT verbs, which bypass admission
// control so operators can observe — and heal — a saturated or fault-wedged
// server.
func (s *Server) serveAdmin(buf []byte, req *Request, id uint32, tagged bool) []byte {
	var verb Verb
	var body []byte
	var err error
	if req.Verb == VerbStats {
		s.met.queries[verbIndex(VerbStats)].Add(1)
		verb = VerbStatsReply
		body, err = json.Marshal(s.Snapshot())
	} else {
		s.met.queries[verbIndex(VerbFault)].Add(1)
		verb = VerbFaultReply
		body, err = s.handleFault(req.FaultCmd)
	}
	if err != nil {
		s.met.errors.Add(1)
		return appendErrorFrame(buf, err.Error(), id, tagged)
	}
	out, start := beginFrame(buf, verb, id, tagged)
	out = append(out, body...)
	out, err = endFrame(out, start)
	if err != nil {
		s.met.errors.Add(1)
		return appendErrorFrame(out[:start], err.Error(), id, tagged)
	}
	return out
}

// serveFrame decodes, admits, executes and encodes one request, appending
// the complete wire-ready response frame onto buf — tagged with the echoed
// request id when the request arrived in a pipelining envelope. The reply
// verb is fixed by the request shape, so the response frame is opened before
// execution and matching records stream straight into it as the scan visits
// them — no intermediate point set, no second copy.
func (s *Server) serveFrame(buf []byte, f Frame, id uint32, tagged bool) []byte {
	qs := qstatePool.Get().(*qstate)
	defer qstatePool.Put(qs)
	if err := decodeRequestInto(f, &qs.req); err != nil {
		s.met.errors.Add(1)
		return appendErrorFrame(buf, err.Error(), id, tagged)
	}
	req := &qs.req
	if req.Verb == VerbStats || req.Verb == VerbFault {
		return s.serveAdmin(buf, req, id, tagged)
	}

	qc := acquireQueryCtx(s.cfg.QueryTimeout)
	defer qc.release()

	tr := s.acquireTrace()
	admitStart := s.traceNow(tr)

	// Admission control: at most MaxInflight queries execute; the rest
	// wait here, which backpressures their connections instead of
	// spawning unbounded work. A query turned away here was never
	// admitted — that is a rejection, distinct from the deadline_exceeded
	// counter below, which covers queries that ran and expired mid-flight.
	// The uncontended path claims its slot without ever arming qc's
	// deadline timer.
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-qc.Done():
			releaseTrace(tr)
			s.met.rejected.Add(1)
			return appendErrorFrame(buf, "server busy: admission queue full past deadline", id, tagged)
		case <-s.done:
			releaseTrace(tr)
			return appendErrorFrame(buf, "server shutting down", id, tagged)
		}
	}
	defer func() { <-s.sem }()
	s.traceSince(tr, stageAdmission, admitStart)

	verb := VerbPoints
	switch {
	case req.Verb == VerbRange && req.CountOnly:
		verb = VerbCount
	case req.Verb == VerbInsert || req.Verb == VerbDelete:
		verb = VerbWriteOK
	}
	out, fstart := beginFrame(buf, verb, id, tagged)
	var enc resultEncoder
	if verb == VerbPoints {
		enc = newResultEncoder(out, s.grid.Dims())
	}

	start := s.cfg.clock()
	res, err := s.executeTraced(qc, qs, tr, &enc)
	if verb == VerbPoints {
		out = enc.buf
	}
	if err != nil {
		s.finishTrace(tr, req.Verb, s.cfg.clock().Sub(start), res.Info, err)
		if qc.Err() != nil {
			s.met.deadlineExceeded.Add(1)
			return appendErrorFrame(out[:fstart], "deadline exceeded: "+err.Error(), id, tagged)
		}
		s.met.errors.Add(1)
		return appendErrorFrame(out[:fstart], err.Error(), id, tagged)
	}
	res.Info.Elapsed = s.cfg.clock().Sub(start)
	s.met.queries[verbIndex(req.Verb)].Add(1)
	if res.Info.Degraded {
		s.met.degraded.Add(1)
	}
	s.met.latency.Record(res.Info.Elapsed)
	s.met.fetches.Record(time.Duration(res.Info.Buckets))

	// Row payloads were encoded during the scan; all that is left is the
	// count back-patch and the info trailer.
	encStart := s.traceNow(tr)
	if verb == VerbPoints {
		out, err = enc.finish(res.Info)
	} else {
		out, err = AppendResult(out, verb, res)
	}
	s.traceSince(tr, stageEncode, encStart)
	if err != nil {
		s.finishTrace(tr, req.Verb, res.Info.Elapsed, res.Info, err)
		s.met.errors.Add(1)
		return appendErrorFrame(out[:fstart], err.Error(), id, tagged)
	}
	out, err = endFrame(out, fstart)
	if err != nil {
		s.finishTrace(tr, req.Verb, res.Info.Elapsed, res.Info, err)
		s.met.errors.Add(1)
		return appendErrorFrame(out[:fstart], err.Error(), id, tagged)
	}
	s.finishTrace(tr, req.Verb, res.Info.Elapsed, res.Info, nil)
	return out
}

// executeTraced runs execute, and — only when the query carries a trace —
// under pprof labels (verb, degraded-mode) so CPU profiles of a live server
// split by query shape. Untraced queries take the plain path and pay for
// neither the labels nor the context allocation behind them.
func (s *Server) executeTraced(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder) (res Result, err error) {
	if tr == nil {
		return s.execute(ctx, qs, nil, enc)
	}
	deg := "off"
	if s.cfg.Degraded {
		deg = "on"
	}
	rpprof.Do(ctx, rpprof.Labels("verb", verbName(qs.req.Verb), "degraded", deg),
		func(ctx context.Context) {
			res, err = s.execute(ctx, qs, tr, enc)
		})
	return res, err
}

func (s *Server) execute(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder) (Result, error) {
	req := &qs.req
	dims := s.grid.Dims()
	switch req.Verb {
	case VerbPoint:
		if len(req.Key) != dims {
			return Result{}, fmt.Errorf("key is %d-D, grid is %d-D", len(req.Key), dims)
		}
		return s.pointQuery(ctx, qs, tr, enc, req.Key)
	case VerbRange:
		if len(req.Query) != dims {
			return Result{}, fmt.Errorf("query is %d-D, grid is %d-D", len(req.Query), dims)
		}
		return s.rangeQuery(ctx, qs, tr, enc, req.Query, req.CountOnly)
	case VerbPartial:
		if len(req.Vals) != dims {
			return Result{}, fmt.Errorf("query is %d-D, grid is %d-D", len(req.Vals), dims)
		}
		return s.partialQuery(ctx, qs, tr, enc, req.Vals)
	case VerbKNN:
		if len(req.Key) != dims {
			return Result{}, fmt.Errorf("key is %d-D, grid is %d-D", len(req.Key), dims)
		}
		return s.knnQuery(ctx, qs, tr, enc, req.Key, req.K)
	case VerbInsert:
		return s.writeOp(ctx, (*store.Store).Insert, req.Key)
	case VerbDelete:
		return s.writeOp(ctx, (*store.Store).Delete, req.Key)
	}
	return Result{}, fmt.Errorf("unhandled verb 0x%02x", uint8(req.Verb))
}

// writeOp executes one mutation (mutate is the store's Insert or Delete)
// against the writable store. The store tells the bucket cache which buckets
// the op made stale (SetStaleHook) once it has journaled the op and swapped
// the rewritten placements, so a read admitted after the ack can never see
// pre-write data through a stale cache entry (a concurrent leader that loaded
// the old pages is fenced by the cache's invalidation stamp). The store
// serializes mutations internally; concurrent INSERTs from many connections
// are safe.
func (s *Server) writeOp(ctx context.Context, mutate func(*store.Store, context.Context, geom.Point) (store.Mutation, error), key geom.Point) (Result, error) {
	if len(key) != s.grid.Dims() {
		return Result{}, fmt.Errorf("key is %d-D, grid is %d-D", len(key), s.grid.Dims())
	}
	if !s.writable {
		return Result{}, errors.New("server is read-only (restart with writes enabled)")
	}
	m, err := mutate(s.st, ctx, key)
	if err != nil {
		return Result{}, err
	}
	res := Result{Applied: m.Applied, Splits: m.Splits}
	res.Info.Buckets = len(m.Stale)
	return res, nil
}

// publishLeads completes every bucket of a successfully read batch in the
// cache, so followers blocked in Pending.Wait unblock with the data.
func (s *Server) publishLeads(ids []int32, recs []geom.Flat) {
	if s.bcache == nil {
		return
	}
	for i, id := range ids {
		s.bcache.Complete(id, recs[i], s.st.PagesFor(recs[i].Len()), nil)
	}
}

// failLeads publishes err for every bucket this query volunteered to load,
// so waiting followers unblock and the cache's in-flight table stays clean.
// Used for batches never handed to a disk worker and for batches whose
// failover routes are exhausted; successful batches are published by the
// disk workers.
func (s *Server) failLeads(ids []int32, err error) {
	if s.bcache == nil {
		return
	}
	for _, id := range ids {
		s.bcache.Complete(id, geom.Flat{}, 0, err)
	}
}

// fetchBuckets resolves a query's bucket set into recs (parallel to ids,
// len(recs) == len(ids), pre-zeroed by the caller): cache hits are filled
// immediately, buckets another in-flight query is already reading are
// joined (singleflight), and the rest are batched per disk and submitted to
// the disk workers' request rings. Every bucket this query leads is
// published to the cache exactly once — with data or with the error —
// before fetchBuckets returns, so followers never wait on an abandoned
// load. A degraded return leaves missed buckets as zero Flats, which scan
// as empty.
//
// The common case — every bucket resident — never leaves this function and
// allocates nothing.
func (s *Server) fetchBuckets(ctx context.Context, tr *Trace, ids []int32, recs []geom.Flat) (QueryInfo, error) {
	var info QueryInfo
	cacheStart := s.traceNow(tr)
	if s.bcache != nil {
		for i, id := range ids {
			r := s.bcache.Acquire(id)
			if !r.Hit {
				return s.fetchBucketsSlow(ctx, tr, ids, recs, i, r, true, info, cacheStart)
			}
			recs[i] = r.Rec
			info.Buckets++
		}
		s.traceSince(tr, stageCache, cacheStart)
		tr.noteCache(len(ids), 0, 0)
		return info, nil
	}
	return s.fetchBucketsSlow(ctx, tr, ids, recs, 0, cache.AcquireResult{}, false, info, cacheStart)
}

// leadBatch is one disk's worth of buckets a query must read itself, with
// each bucket's index into the query's recs slice riding along so responses
// scatter straight into place.
type leadBatch struct {
	ids  []int32
	idxs []int
}

// fetchBucketsSlow is the miss path of fetchBuckets, entered at position i
// with — when haveFirst — the AcquireResult already obtained for ids[i]
// (re-acquiring would self-join a load this query leads and deadlock).
func (s *Server) fetchBucketsSlow(ctx context.Context, tr *Trace, ids []int32, recs []geom.Flat,
	i int, first cache.AcquireResult, haveFirst bool, info QueryInfo, cacheStart time.Time) (QueryInfo, error) {
	type join struct {
		idx int
		id  int32
		p   *cache.Pending
	}
	var joins []join
	var leads map[int]*leadBatch // disk -> buckets this query must read
	nleads := 0
	hits := info.Buckets
	for ; i < len(ids); i++ {
		id := ids[i]
		var r cache.AcquireResult
		switch {
		case haveFirst:
			r, haveFirst = first, false
		case s.bcache != nil:
			r = s.bcache.Acquire(id)
		default:
			// No cache: every bucket is this query's own read.
			r = cache.AcquireResult{Leader: true}
		}
		switch {
		case r.Hit:
			recs[i] = r.Rec
			info.Buckets++
			hits++
			continue
		case r.Pending != nil:
			joins = append(joins, join{i, id, r.Pending})
			continue
		}
		pl, ok := s.st.Placement(id)
		if !ok {
			err := fmt.Errorf("bucket %d not in store", id)
			s.failLeads(ids[i:i+1], err)
			for _, b := range leads {
				s.failLeads(b.ids, err)
			}
			s.traceSince(tr, stageCache, cacheStart)
			return info, err
		}
		disk := pl.Disk
		if s.replicated {
			// Load-aware read selection: route the lead to the least-loaded
			// live owner. Ties prefer the primary, so an idle server reads
			// like an unreplicated one.
			if d, live := s.st.PickOwner(id, nil); live {
				disk = d
			}
		}
		if leads == nil {
			leads = make(map[int]*leadBatch)
		}
		b := leads[disk]
		if b == nil {
			b = &leadBatch{}
			leads[disk] = b
		}
		b.ids = append(b.ids, id)
		b.idxs = append(b.idxs, i)
		nleads++
	}
	s.traceSince(tr, stageCache, cacheStart)
	tr.noteCache(hits, len(joins), nleads)

	// One batch per disk. The response channel is buffered for every lead
	// bucket: outstanding batches always hold disjoint lead sets (a failed
	// batch is regrouped only after its response is drained), so at most
	// nleads responses can ever be in flight and disk workers never block
	// on an abandoned query. The gather loop waits for every submitted batch
	// (the workers answer expired contexts immediately). Leads of successful
	// batches are completed by the disk workers; failed or never-submitted
	// batches are completed here, after failover is exhausted.
	resp := make(chan fetchResp, nleads)
	var err error
	submitted := 0
	for disk, b := range leads {
		if err != nil {
			s.failLeads(b.ids, err)
			continue
		}
		if !s.sched[disk].submit(fetchReq{ids: b.ids, idxs: b.idxs, ctx: ctx, resp: resp, tr: tr, enq: s.traceNow(tr)}) {
			err = errors.New("server shutting down")
			s.failLeads(b.ids, err)
			continue
		}
		s.st.AddLoad(disk, int64(len(b.ids)))
		submitted++
	}
	// missedDisks records disks whose batches failed transiently while
	// degraded mode absorbs the failure; the answer then covers only the
	// surviving disks (a strict subset of the full result, never wrong
	// records, because buckets are whole-disk resident). On a replicated
	// layout failover comes first: bucketFailed tracks, PER BUCKET, the
	// disks it has already failed on, and each failed bucket is rerouted to
	// its least-loaded remaining owner. The exclusion set is per bucket, not
	// per query: two unrelated batches failing on different disks must not
	// condemn a third bucket that owns copies on both but never tried either
	// — with transient (probabilistic) faults that would lose buckets a live
	// owner could still serve. Each reroute excludes one more distinct owner,
	// so a bucket fails over at most r-1 times before it is lost.
	var missedDisks map[int]bool
	degrade := func(disk int) {
		if missedDisks == nil {
			missedDisks = make(map[int]bool)
		}
		missedDisks[disk] = true
	}
	var bucketFailed map[int32][]int
	var nPrimary, nSecondary int64
	for outstanding := submitted; outstanding > 0; {
		r := <-resp
		outstanding--
		s.st.AddLoad(r.disk, -int64(len(r.ids)))
		if r.err == nil {
			for k := range r.ids {
				recs[r.idxs[k]] = r.recs[k]
				info.Buckets++
			}
			info.Pages += r.pages
			if s.replicated {
				for _, id := range r.ids {
					if own := s.st.Owners(id); len(own) > 0 && own[0] != r.disk {
						nSecondary++
					} else {
						nPrimary++
					}
				}
			}
			continue
		}
		if s.replicated && err == nil && s.transientErr(ctx, r.err) {
			if bucketFailed == nil {
				bucketFailed = make(map[int32][]int)
			}
			for _, id := range r.ids {
				bucketFailed[id] = append(bucketFailed[id], r.disk)
			}
			if resubmitted := s.failOver(ctx, tr, resp, r, bucketFailed, degrade, &err); resubmitted > 0 {
				outstanding += resubmitted
			}
			continue
		}
		// No failover route: complete the leads with the error so followers
		// unblock, then absorb the failure (degraded) or surface it.
		s.failLeads(r.ids, r.err)
		if s.degradable(ctx, r.err) {
			degrade(r.disk)
			continue
		}
		if err == nil {
			err = r.err
		}
	}
	if nPrimary > 0 {
		s.met.replicaReadsPrimary.Add(nPrimary)
	}
	if nSecondary > 0 {
		s.met.replicaReadsSecondary.Add(nSecondary)
	}
	if err != nil {
		return info, err
	}

	// Collect joined loads last: their leaders read in parallel with ours.
	// A leader's transient failure degrades this query too — the bucket's
	// disk is what actually failed. Waiting on a leader counts as cache
	// time: the bucket is being materialized by the cache's singleflight,
	// not by this query's own I/O.
	joinStart := s.traceNow(tr)
	defer s.traceSince(tr, stageCache, joinStart)
	for _, j := range joins {
		rec, _, werr := j.p.Wait(ctx)
		if werr != nil {
			if s.degradable(ctx, werr) {
				if pl, ok := s.st.Placement(j.id); ok {
					degrade(pl.Disk)
					continue
				}
			}
			return info, werr
		}
		recs[j.idx] = rec
		info.Buckets++
	}
	if len(missedDisks) > 0 {
		info.Degraded = true
		info.MissedDisks = len(missedDisks)
	}
	return info, nil
}

// failOver reroutes one transiently failed batch to surviving owner disks:
// each bucket is resubmitted to its least-loaded owner it has not yet failed
// on (per bucketFailed) as its OWN single-bucket batch with a fresh retry
// budget. The split is deliberate — failover is the last stop before losing
// the bucket, and in the original coalesced batch one unlucky injected pread
// fails every bucket riding along; independent retries make the per-bucket
// survival odds (1-p)^attempts instead of (1-p)^(attempts·runs). Buckets
// whose every owner already failed — and reroutes the failover failpoint
// kills — are completed with the original error and absorbed as degraded (or
// surfaced via *errp). It returns the number of batches resubmitted, which
// the gather loop must keep waiting for.
func (s *Server) failOver(ctx context.Context, tr *Trace, resp chan fetchResp,
	r fetchResp, bucketFailed map[int32][]int, degrade func(int), errp *error) int {
	var lost []int32
	resubmitted := 0
	for k, id := range r.ids {
		tried := bucketFailed[id]
		disk, ok := s.st.PickOwner(id, func(d int) bool {
			for _, fd := range tried {
				if fd == d {
					return true
				}
			}
			return false
		})
		if !ok {
			lost = append(lost, id)
			continue
		}
		// The failover redirect is itself a failpoint site: chaos runs can
		// stall it or kill it, forcing the pre-replication degraded fallback.
		redirected := true
		if inj, hit := s.faults.Eval(fault.SiteServerFailover); hit {
			if inj.Delay > 0 && fault.Sleep(ctx, inj.Delay) != nil {
				redirected = false
			}
			if inj.Err != nil {
				redirected = false
			}
		}
		if !redirected {
			lost = append(lost, id)
			continue
		}
		if !s.sched[disk].submit(fetchReq{ids: r.ids[k : k+1], idxs: r.idxs[k : k+1], ctx: ctx, resp: resp, tr: tr, enq: s.traceNow(tr)}) {
			lost = append(lost, id)
			continue
		}
		s.st.AddLoad(disk, 1)
		s.met.replicaFailover.Add(1)
		resubmitted++
	}
	if len(lost) > 0 {
		s.failLeads(lost, r.err)
		if s.degradable(ctx, r.err) {
			degrade(r.disk)
		} else if *errp == nil {
			*errp = r.err
		}
	}
	return resubmitted
}

// transientErr reports whether a fetch failure is recoverable by reading
// elsewhere — injected, or a detected page checksum mismatch, with the
// query itself still live — and thus a
// candidate for replica failover or degraded absorption. A checksum
// failure is corruption of ONE copy, not of the bucket: a surviving
// replica (or the scrubber's repair) still holds the records, which is
// exactly what failover routes to. Structural failures (unknown buckets, a
// manifest that disagrees with the page files) stay fatal.
func (s *Server) transientErr(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return fault.IsInjected(err) || store.IsChecksum(err)
}

// degradable reports whether a fetch error may be absorbed into a partial
// answer: degraded mode is on, the query itself is still live, and the
// failure is transient.
func (s *Server) degradable(ctx context.Context, err error) bool {
	return s.cfg.Degraded && s.transientErr(ctx, err)
}

// Translation locking: on a writable server the grid's scales and directory
// mutate underneath concurrent queries, so every directory translation runs
// under the store's grid read-lock. The store only takes the corresponding
// write-lock for the in-memory apply step of a mutation (journal fsyncs
// happen before it), so readers are never blocked on disk I/O. On read-only
// stores RLockGrid is a no-op and translation stays lock-free.
//
// The buckets are fetched after the lock is released, so a split or merge
// may land between the two: the translated ids then miss the bucket the
// split moved records to (a short answer), or name both halves of a merge (a
// long one). Every query therefore reads the store's grid generation with
// its translation and compares it after the fetch, translating and fetching
// again when it moved.

// growFlats returns a zeroed length-n slice, reusing s's backing array when
// it is big enough. Zeroing matters: a degraded fetch leaves missing
// buckets untouched, and a stale arena left over from the previous query
// through the same pooled scratch would otherwise be scanned as live data.
func growFlats(s []geom.Flat, n int) []geom.Flat {
	if cap(s) < n {
		return make([]geom.Flat, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = geom.Flat{}
	}
	return s
}

// fetchTranslated runs translate — which fills qs.ids — under the grid read
// lock and fetches those buckets into qs.recs, again from the translation if
// the grid's generation moved in between.
func (s *Server) fetchTranslated(ctx context.Context, qs *qstate, tr *Trace, translate func() error) (QueryInfo, error) {
	for {
		tstart := s.traceNow(tr)
		s.st.RLockGrid()
		gen := s.st.GridGen()
		err := translate()
		s.st.RUnlockGrid()
		s.traceSince(tr, stageTranslate, tstart)
		if err != nil {
			return QueryInfo{}, err
		}
		qs.recs = growFlats(qs.recs, len(qs.ids))
		info, err := s.fetchBuckets(ctx, tr, qs.ids, qs.recs)
		if err != nil || s.st.GridGen() == gen {
			return info, err
		}
	}
}

func (s *Server) pointQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, key geom.Point) (Result, error) {
	info, err := s.fetchTranslated(ctx, qs, tr, func() error {
		id, ok := s.grid.BucketAt(key)
		if !ok {
			return fmt.Errorf("key %v outside the domain", key)
		}
		qs.ids = append(qs.ids[:0], id)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.Info = info
	rec := qs.recs[0]
	for i := 0; i < rec.Len(); i++ {
		row := rec.Row(i)
		if pointsEqual(row, key) {
			enc.appendRow(row)
		}
	}
	res.Count = enc.count()
	return res, nil
}

func (s *Server) rangeQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, q geom.Rect, countOnly bool) (Result, error) {
	info, err := s.fetchTranslated(ctx, qs, tr, func() error {
		qs.ids = s.grid.BucketsInRangeAppend(q, qs.ids[:0])
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.Info = info
	if countOnly {
		enc = nil
	}
	res.Count, err = scanBuckets(qs.recs, q, enc)
	return res, err
}

// scanBuckets applies the closed-box predicate q to every record of recs —
// the one scan behind range, range-count and partial-match — and returns how
// many matched; with a non-nil enc the matches are also appended to the
// response frame, in bucket then row order, and an answer that would pass
// the frame limit is refused at the first row that does not fit. Each bucket
// is first decided as a whole from its bounding box: one the query contains
// is copied (or counted) without looking at its rows, one it misses is
// skipped, and only a bucket on the query's boundary, or one with no box,
// pays the per-row test. A grid file's range query mostly meets the first
// kind. Zero Flats (what a degraded fetch leaves) scan as empty.
func scanBuckets(recs []geom.Flat, q geom.Rect, enc *resultEncoder) (int, error) {
	if enc != nil {
		rows := 0
		for _, rec := range recs {
			rows += rec.Len()
		}
		enc.reserve(rows)
	}
	count := 0
	for _, rec := range recs {
		n := rec.Len()
		switch rec.Cover(q) {
		case geom.Outside:
		case geom.Inside:
			count += n
			if enc != nil {
				if !enc.room(n) {
					return 0, ErrFrameTooBig
				}
				enc.appendRows(rec.Coords)
			}
		default:
			for i := 0; i < n; i++ {
				row := rec.Row(i)
				if !q.ContainsPoint(row) {
					continue
				}
				count++
				if enc != nil {
					if !enc.room(1) {
						return 0, ErrFrameTooBig
					}
					enc.appendRow(row)
				}
			}
		}
	}
	return count, nil
}

func (s *Server) partialQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, vals []float64) (Result, error) {
	dom := s.grid.Domain()
	q := make(geom.Rect, len(vals))
	for d, v := range vals {
		if math.IsNaN(v) {
			q[d] = dom[d]
		} else {
			q[d] = geom.Interval{Lo: v, Hi: v}
		}
	}
	// Range containment already requires equality on the specified
	// (degenerate) intervals; nothing further to filter.
	return s.rangeQuery(ctx, qs, tr, enc, q, false)
}

// knnQuery finds the k nearest stored points by growing a range box around
// the key — the grid file's classic expanding-search strategy, executed
// against the page store so every probe is real declustered I/O. Buckets
// are fetched at most once per query.
func (s *Server) knnQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, key geom.Point, k int) (Result, error) {
	dom := s.grid.Domain()
	if err := domContains(dom, key); err != nil {
		return Result{}, err
	}
	// Initial radius: one average cell extent, so the first probe touches
	// roughly the cell neighbourhood of the key.
	r := 0.0
	s.st.RLockGrid()
	cells := s.grid.CellSizes()
	s.st.RUnlockGrid()
	for d, n := range cells {
		if ext := dom[d].Length() / float64(n); ext > r {
			r = ext
		}
	}
	if r <= 0 {
		r = 1
	}

	type cand struct {
		row  []float64
		dist float64
	}
	fetched := make(map[int32]geom.Flat)
	var fetchedGen uint64 // the grid generation fetched was translated and read at
	var info QueryInfo
	for {
		q := make(geom.Rect, len(key))
		covers := true
		for d := range key {
			q[d] = geom.Interval{
				Lo: math.Max(key[d]-r, dom[d].Lo),
				Hi: math.Min(key[d]+r, dom[d].Hi),
			}
			if q[d].Lo > dom[d].Lo || q[d].Hi < dom[d].Hi {
				covers = false
			}
		}
		tstart := s.traceNow(tr)
		s.st.RLockGrid()
		gen := s.st.GridGen()
		ids := s.grid.BucketsInRange(q)
		s.st.RUnlockGrid()
		s.traceSince(tr, stageTranslate, tstart)
		if gen != fetchedGen {
			// A split or merge since the earlier probes: their buckets no
			// longer fit together with this translation.
			clear(fetched)
			fetchedGen = gen
		}
		var fresh []int32
		for _, id := range ids {
			if _, ok := fetched[id]; !ok {
				fresh = append(fresh, id)
			}
		}
		recs := make([]geom.Flat, len(fresh))
		fi, err := s.fetchBuckets(ctx, tr, fresh, recs)
		if err != nil {
			return Result{}, err
		}
		info.Buckets += fi.Buckets
		info.Pages += fi.Pages
		if s.st.GridGen() != gen {
			continue // probe again at this radius; the next translation drops fetched
		}
		if fi.Degraded {
			// Part of the probe is gone; the distance bound no longer
			// proves anything, so stop expanding and return the best
			// candidates the surviving disks gave us, flagged degraded.
			info.Degraded = true
			if fi.MissedDisks > info.MissedDisks {
				info.MissedDisks = fi.MissedDisks
			}
			covers = true
		}
		for i, id := range fresh {
			fetched[id] = recs[i]
		}

		var cands []cand
		for _, rec := range fetched {
			for i := 0; i < rec.Len(); i++ {
				row := rec.Row(i)
				cands = append(cands, cand{row: row, dist: euclid(row, key)})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
		// Done when the k-th distance is inside the probed radius (no
		// unfetched point can be closer) or the box covers the domain.
		if covers || (len(cands) >= k && cands[k-1].dist <= r) {
			n := min(k, len(cands))
			for _, c := range cands[:n] {
				enc.appendRow(c.row)
			}
			return Result{Count: n, Info: info}, nil
		}
		r *= 2
	}
}

func pointsEqual(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func euclid(a, b geom.Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func domContains(dom geom.Rect, p geom.Point) error {
	for d := range p {
		if !dom[d].Contains(p[d]) {
			return fmt.Errorf("key %v outside the domain", p)
		}
	}
	return nil
}

func (s *Server) stopFetchers() {
	for _, q := range s.sched {
		q.close()
	}
	s.fetchWg.Wait()
}

// Close shuts the server down gracefully: stop accepting, let in-flight
// queries finish (up to DrainTimeout, then force-close), stop the disk
// goroutines and the HTTP endpoint. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	// Unblock handlers parked in ReadFrame; handlers mid-query keep their
	// write path and finish their current reply.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	s.ln.Close()
	s.acceptWg.Wait()

	if !waitTimeout(&s.connWg, s.cfg.DrainTimeout) {
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWg.Wait()
	}
	s.stopFetchers()
	s.scrubWg.Wait()

	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.ownsStore {
		s.st.Close()
	}
	return nil
}

// waitTimeout waits for wg up to d; it reports whether the wait completed.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
