package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
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
	// CacheBytes bounds the sharded second-chance cache of decoded buckets
	// fronting the page store. 0 selects the default (64 MiB); negative
	// turns caching off: the cache's budget is zero and it keeps nothing,
	// so every bucket is read from disk by the same miss path.
	CacheBytes int64
	// Pprof additionally exposes the standard net/http/pprof profiling
	// handlers under /debug/pprof/ on the HTTPAddr mux, so the serving path
	// can be profiled in place. It needs HTTPAddr: New refuses it alone.
	Pprof bool
	// Writable accepts the INSERT/DELETE verbs on an OpenDir server; without
	// it they are rejected with a protocol error. A New server accepts them
	// whatever it says: its caller opened the store, and may write it.
	Writable bool

	// Faults is the failpoint registry threaded into the store's read path
	// and the FAULT admin verb. nil gets a fresh (disarmed) registry, so
	// the admin verb always works; injection costs one atomic load until a
	// rule is armed.
	Faults *fault.Registry
	// Degraded turns failed reads that no surviving copy could replace into
	// partial answers — the response carries the degraded flag and a
	// missed-disk count instead of an error. Off by default: the zero
	// value preserves fail-fast behaviour.
	Degraded bool
	// ScrubInterval, when positive, runs a background integrity scrub of
	// the whole layout every interval: each pass verifies every page copy
	// against its checksum and repairs corrupt copies from an intact
	// replica (see store.Scrub), pausing scrubPause between buckets. ScrubNow
	// runs one pass synchronously regardless of this setting.
	ScrubInterval time.Duration

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

	// clock is the time source behind latency and stage-trace measurement;
	// test hook for deterministic timing assertions. Defaults to time.Now.
	clock func() time.Time
	// pipelineDepth bounds, per connection, the number of tagged
	// (pipelined) requests executing concurrently; beyond it the reader
	// stops draining the socket, backpressuring the client. Always 64
	// outside tests: the coalescing test sets 1 to get a connection with a
	// single worker.
	pipelineDepth int
}

// drainTimeout bounds how long Close waits for in-flight queries before
// force-closing connections.
const drainTimeout = 5 * time.Second

// scrubPause is slept between buckets within one background scrub pass,
// keeping it low-priority next to live queries.
const scrubPause = 10 * time.Millisecond

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
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // off: a zero budget keeps nothing
	}
	if c.Faults == nil {
		c.Faults = fault.NewRegistry(1)
	}
	if c.TraceLog == nil {
		c.TraceLog = os.Stderr
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	if c.pipelineDepth <= 0 {
		c.pipelineDepth = 64
	}
	return c
}

// Server is a running query service: an acceptor, one handler goroutine per
// connection, and one queue and I/O goroutine per disk file. The store's grid
// file (st.Grid()) acts as the coordinator's scales+directory; record data is
// fetched from the page store with real file I/O. Every directory translation
// runs under the store's grid read-lock, since the grid mutates underneath
// concurrent queries when the server accepts INSERT/DELETE (Config.Writable)
// or the store's owner writes it.
type Server struct {
	cfg    Config
	st     *store.Store
	dom    geom.Rect // the grid's domain, fixed for the layout's life
	met    *Metrics
	faults *fault.Registry

	// bcache caches decoded buckets in front of the page store; with the
	// cache off its budget is zero, and it keeps nothing. Directory
	// translation itself needs no lock: the grid file's query paths are safe
	// for concurrent readers.
	bcache *cache.Cache

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	sem chan struct{}
	// tagSlots is the global budget for extra tagged-request workers: every
	// connection gets one worker for free, and beyond that the fleet of
	// pipelined workers across ALL connections is capped at MaxInflight.
	// Without it, conns×pipelineDepth goroutines pile up behind the
	// admission semaphore and scheduler churn erases the pipelining win.
	tagSlots chan struct{}
	sched    []chan fetchReq // each disk's queue, in arrival order
	heads    []diskHead      // who may read each disk next
	fetchWg  sync.WaitGroup

	// replicated is a layout of two or more copies per bucket: bucket reads
	// are counted as primary or secondary copy reads.
	replicated bool

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

// New starts a server over an already-open page store. The store owns the
// layout's grid file — it decoded it from the layout's checkpoint file with
// the placements when it opened — so grid must be st.Grid(); the parameter
// stays only because the frozen bench/ passes it. The caller keeps ownership
// of st, and the server accepts INSERT/DELETE on it whatever cfg.Writable
// says.
func New(grid *gridfile.File, st *store.Store, cfg Config) (*Server, error) {
	if grid != st.Grid() {
		return nil, errors.New("server: a store is served from its own grid (pass st.Grid())")
	}
	cfg.Writable = true
	return start(st, cfg)
}

// start is New, or OpenDir, past its own checks: the engine and its
// listeners over st.
func start(st *store.Store, cfg Config) (*Server, error) {
	if cfg.Pprof && cfg.HTTPAddr == "" {
		return nil, errors.New("server: Config.Pprof needs Config.HTTPAddr: the pprof handlers are served on the HTTP listener")
	}
	s := newEngine(st, cfg)
	err := s.listen()
	if err == nil && s.cfg.HTTPAddr != "" {
		err = s.startHTTP(s.cfg.HTTPAddr)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newEngine builds everything of a Server that answers requests — store
// hooks, cache, admission, disk workers, metrics, the scrub loop — and opens
// no socket: exec serves request frames on it as it stands, and New puts the
// listeners on top. Close releases it either way.
func newEngine(st *store.Store, cfg Config) *Server {
	m := st.Manifest()
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		st:       st,
		dom:      st.Grid().Domain(),
		met:      newMetrics(m.Disks),
		faults:   cfg.Faults,
		sem:      make(chan struct{}, cfg.MaxInflight),
		tagSlots: make(chan struct{}, cfg.MaxInflight),
		sched:    make([]chan fetchReq, m.Disks),
		heads:    make([]diskHead, m.Disks),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	st.SetFaults(s.faults)
	s.bcache = cache.New(cfg.CacheBytes, 0)
	// Every bucket a write makes stale leaves the cache before the write
	// releases the grid lock: a query that translates against the
	// post-split directory must not find the pre-split bucket cached.
	st.SetStaleHook(s.bcache.Invalidate)
	s.replicated = m.Replicas > 1

	// One queue and one I/O worker per disk file: reads of the same disk
	// serialize, one at a time in arrival order (one head per spindle, as in
	// the paper's model), while distinct disks proceed in parallel — this is
	// where declustering quality becomes real wall-clock parallelism. A
	// queued request is read by the disk's worker, or by its own query when
	// it reaches the front while nobody reads the disk (diskHead). A queue
	// holds MaxInflight requests: an admitted query has at most one batch
	// per disk outstanding, so only a failover burst can fill it, and then
	// the submitting query waits for the worker to drain it.
	for d := range s.sched {
		s.sched[d] = make(chan fetchReq, cfg.MaxInflight)
		s.heads[d].idle.L = &s.heads[d].mu
		s.fetchWg.Add(1)
		go s.diskWorker(d, s.sched[d])
	}

	if cfg.ScrubInterval > 0 {
		s.scrubWg.Add(1)
		go s.scrubLoop()
	}
	return s
}

// OpenDir opens a layout directory written by store.Write or WriteReplicated
// (store.Open: crash-left journals are replayed before serving starts) and
// serves it; Close releases the store. It accepts INSERT/DELETE only with
// cfg.Writable.
func OpenDir(dir string, cfg Config) (*Server, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s, err := start(st, cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	s.ownsStore = true
	return s, nil
}
