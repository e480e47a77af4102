package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Addr is the server's TCP address (required).
	Addr string
	// PoolSize bounds pooled idle connections (and, when pipelining,
	// the number of pipelined connections requests round-robin over);
	// connections are dialed lazily. Default 4.
	PoolSize int
	// RequestTimeout bounds one request/response round trip. Default 10s.
	RequestTimeout time.Duration
	// Retries is how many times a transport-level failure is retried on a
	// fresh connection (server-reported errors are never retried).
	// Default 2.
	Retries int
	// Pipeline, when > 1, keeps up to that many requests in flight per
	// connection: requests are wrapped in tagged envelopes (VerbTagged)
	// carrying a request id the server echoes, so responses may complete
	// out of order and one connection carries many concurrent callers.
	// 0 or 1 disables pipelining — the client then speaks the exact PR 1–6
	// protocol, which is what keeps it compatible with older servers.
	Pipeline int

	// backoff is the initial retry delay. Always retryBackoff outside tests:
	// the cancellation test sets a long one to cancel a caller mid-sleep.
	backoff time.Duration
}

// retryBackoff is the initial retry delay, doubling per attempt with full
// jitter (each sleep is uniform in (0, backoff]) so clients that failed
// together don't retry in lockstep.
const retryBackoff = 25 * time.Millisecond

func (c ClientConfig) withDefaults() ClientConfig {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.backoff <= 0 {
		c.backoff = retryBackoff
	}
	if c.Pipeline < 1 {
		c.Pipeline = 1
	}
	return c
}

// Client talks the gridserver protocol with connection pooling, per-request
// deadlines and retry with exponential backoff; with Pipeline > 1 it
// multiplexes concurrent requests over tagged connections instead. It is
// safe for concurrent use.
type Client struct {
	cfg     ClientConfig
	mu      sync.Mutex
	idle    []*clientConn   // non-pipelined pool
	pipes   []*pipeConn     // pipelined conns, round-robined; nil slots dial lazily
	dialing []chan struct{} // per-slot dial in flight; closed when the slot settles
	rr      uint64
	closed  bool
}

// NewClient creates a client for the given server address. No connection is
// made until the first request.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("server: client needs an address")
	}
	return &Client{cfg: cfg.withDefaults()}, nil
}

// clientConn is one pooled non-pipelined connection with its read/write
// scratch: requests are framed into wbuf and responses read into rbuf, so
// the steady-state transport path allocates nothing and issues one write
// and (typically) one buffered read syscall per round trip.
type clientConn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

// dialTimeout bounds connection establishment.
const dialTimeout = 2 * time.Second

// dial opens one connection. TCP_NODELAY is on — Go's default for TCP — as
// the protocol's small latency-sensitive frames want (DESIGN S26).
func (c *Client) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
}

func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("server: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	return &clientConn{c: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *Client) putConn(cc *clientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= c.cfg.PoolSize {
		cc.c.Close()
		return
	}
	c.idle = append(c.idle, cc)
}

// idempotent reports whether a request may safely be re-sent when the
// transport failed mid-flight. Only the read-only verbs qualify — this is an
// allowlist, not a denylist, so any verb added later defaults to the safe
// single-attempt behaviour. A torn connection leaves the first attempt's fate
// unknown: the server may have applied it and the ack was lost. Re-sending a
// query just re-reads; re-sending INSERT would double-apply it, re-sending
// DELETE could remove a second identical record, and re-sending a FAULT spec
// would arm it twice. Mutations and admin commands get exactly one attempt.
func idempotent(v Verb) bool {
	switch v {
	case VerbPoint, VerbRange, VerbPartial, VerbKNN, VerbStats:
		return true
	}
	return false
}

// encodeError marks a request-validation failure from the encoder: it is
// deterministic, so retrying is pointless and the connection is unharmed.
type encodeError struct{ err error }

func (e *encodeError) Error() string { return e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }

// exchange runs one request end to end: pooling or pipelining, per-request
// deadline, retry with backoff. On success it calls handle exactly once with
// the response frame (never VerbError — that becomes a *ServerError) while
// the frame is still valid; handle must copy anything it keeps, because on
// pooled connections the payload aliases the connection's read buffer. A
// handle error discards the connection (a malformed response means the
// stream can't be trusted) and is returned without retry.
func (c *Client) exchange(ctx context.Context, req Request, handle func(Frame) error) error {
	retries := c.cfg.Retries
	if !idempotent(req.Verb) {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if err := fault.Sleep(ctx, retryDelay(c.cfg.backoff, attempt)); err != nil {
				return fmt.Errorf("server: request cancelled during retry backoff: %w (last error: %v)",
					err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if c.cfg.Pipeline > 1 {
			err = c.exchangePipelined(ctx, req, handle)
		} else {
			err = c.exchangePooled(ctx, req, handle)
		}
		if err == nil {
			return nil
		}
		var ee *encodeError
		var se *ServerError
		if errors.As(err, &ee) || errors.As(err, &se) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			return err // deterministic, server-reported, or caller-aborted: no retry
		}
		lastErr = err
	}
	return fmt.Errorf("server: request failed after %d attempts: %w",
		retries+1, lastErr)
}

// deadlineFor is the sooner of RequestTimeout from now and ctx's deadline,
// so a cancelled caller is not held to the full request timeout.
func (c *Client) deadlineFor(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// exchangePooled is one attempt over a pooled (unpipelined) connection.
func (c *Client) exchangePooled(ctx context.Context, req Request, handle func(Frame) error) error {
	cc, err := c.getConn()
	if err != nil {
		return err
	}
	if err := cc.c.SetDeadline(c.deadlineFor(ctx)); err != nil {
		cc.c.Close()
		return err
	}
	cc.wbuf, err = AppendRequestFrame(cc.wbuf[:0], req, 0, false)
	if err != nil {
		c.putConn(cc) // nothing was written; the connection is fine
		return &encodeError{err}
	}
	if _, err := cc.c.Write(cc.wbuf); err != nil {
		cc.c.Close()
		return err
	}
	resp, err := readFrameBuf(cc.br, &cc.rbuf)
	if err != nil {
		cc.c.Close()
		return err
	}
	if resp.Verb == VerbError {
		err := &ServerError{Msg: string(resp.Payload)}
		c.putConn(cc)
		return err
	}
	if err := handle(resp); err != nil {
		cc.c.Close()
		return err
	}
	c.putConn(cc)
	return nil
}

// waiter carries one pipelined request's reply from the connection's read
// loop to the caller. Waiters — and the buffers backing the reply payloads —
// are pooled: on the happy path both go straight back for the next request,
// so the steady-state pipelined exchange allocates nothing here. The failure
// paths (connection death, timeout, cancellation) deliberately let them leak
// to the collector: a closed channel cannot be reused, and after a caller
// abandons its id a late reply may still race into the waiter.
type waiter struct {
	ch       chan Frame
	buf      *[]byte   // backing store of the delivered frame's payload
	deadline time.Time // reply due by; enforced by the connection watchdog
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan Frame, 1)} }}

// pipeConn is one pipelined connection: callers frame tagged requests into a
// shared pending buffer and group-commit it themselves — the caller that
// finds no write in flight writes everything pending, and every frame queued
// while that write syscall was in flight goes out in its next single write —
// a reader goroutine matches tagged replies to waiting callers by request
// id, and a semaphore bounds requests in flight. Reply timeouts are enforced
// by one per-connection watchdog timer instead of a timer per request: on a
// multiplexed stream a missing reply fails the whole connection anyway, so a
// coarse shared deadline scan detects it just as well at a fraction of the
// cost. Any transport error fails the whole connection — every pending
// caller gets the error and the next request dials a replacement.
type pipeConn struct {
	conn     net.Conn
	br       *bufio.Reader
	sem      chan struct{}
	wtimeout time.Duration // per-flush write deadline
	wd       *time.Timer   // watchdog; rearmed until the connection fails
	wdPeriod time.Duration

	mu      sync.Mutex
	pend    map[uint32]*waiter
	nextID  uint32
	err     error  // terminal error; set once, before failing pend
	pending []byte // frames enqueued for the next group commit
	writing bool   // a caller is in flush; frames enqueued meanwhile are its

	wbuf []byte // the flushing caller's; swapped against pending under mu
}

func newPipeConn(conn net.Conn, depth int, timeout time.Duration) *pipeConn {
	pc := &pipeConn{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 64<<10),
		sem:      make(chan struct{}, depth),
		wtimeout: timeout,
		pend:     make(map[uint32]*waiter),
	}
	// The watchdog granularity trades timeout precision (a timed-out request
	// is detected at most one period late) for never touching a timer on the
	// request path.
	pc.wdPeriod = timeout / 4
	if pc.wdPeriod < 10*time.Millisecond {
		pc.wdPeriod = 10 * time.Millisecond
	}
	pc.wd = time.AfterFunc(pc.wdPeriod, pc.watchdog)
	go pc.readLoop()
	return pc
}

// flush is the connection's group commit, run by the caller whose enqueue
// found no write in flight: it swaps the shared pending buffer against its
// own and submits everything accumulated there as one write syscall, again
// until nothing is pending. Requests framed while a write was in flight ride
// the next swap, so under concurrent load the per-request write cost
// amortizes toward zero without adding any latency when the connection is
// idle.
func (pc *pipeConn) flush() {
	pc.mu.Lock()
	for len(pc.pending) > 0 && pc.err == nil {
		pc.wbuf, pc.pending = pc.pending, pc.wbuf[:0]
		pc.mu.Unlock()
		pc.conn.SetWriteDeadline(time.Now().Add(pc.wtimeout))
		if _, err := pc.conn.Write(pc.wbuf); err != nil {
			// A partial write poisons the stream for everyone, including
			// callers whose frames rode this batch and already returned.
			pc.fail(err)
		}
		pc.mu.Lock()
	}
	pc.writing = false
	pc.mu.Unlock()
}

// watchdog fails the connection when any pending request has outlived its
// deadline; otherwise it rearms itself. It stops rearming once the
// connection is dead.
func (pc *pipeConn) watchdog() {
	now := time.Now()
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	var expired uint32
	timedOut := false
	for id, w := range pc.pend {
		if now.After(w.deadline) {
			expired, timedOut = id, true
			break
		}
	}
	if !timedOut {
		pc.wd.Reset(pc.wdPeriod)
		pc.mu.Unlock()
		return
	}
	pc.mu.Unlock()
	pc.fail(fmt.Errorf("server: request %d timed out", expired))
}

// readLoop dispatches tagged replies to their waiting callers. Replies for
// ids nobody waits on (caller gave up via ctx) are dropped; any read error
// or protocol violation fails the connection. Each reply is read into a
// pooled buffer whose ownership passes to the caller with the frame; dropped
// replies keep the buffer for the next read.
func (pc *pipeConn) readLoop() {
	buf := getRespBuf()
	defer func() { putRespBuf(buf) }()
	for {
		f, err := readFrameBuf(pc.br, buf)
		if err != nil {
			pc.fail(err)
			return
		}
		id, inner, err := UnwrapTagged(f)
		if err != nil {
			if f.Verb == VerbError {
				// An untagged error reply on a pipelined stream is a
				// stream-level failure (e.g. a hostile frame was read): it
				// answers no particular request, so it fails them all.
				pc.fail(&ServerError{Msg: string(f.Payload)})
				return
			}
			pc.fail(fmt.Errorf("server: unpipelined reply on pipelined connection: %w", err))
			return
		}
		pc.mu.Lock()
		w, ok := pc.pend[id]
		if ok {
			delete(pc.pend, id)
		}
		pc.mu.Unlock()
		if ok {
			w.buf = buf
			w.ch <- inner // buffered; never blocks
			buf = getRespBuf()
		}
	}
}

// fail marks the connection dead, closes it, and unblocks every pending
// caller by closing their channels; pc.err carries the cause. The watchdog
// stops rearming.
func (pc *pipeConn) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
		for id, w := range pc.pend {
			delete(pc.pend, id)
			close(w.ch)
		}
	}
	pc.mu.Unlock()
	pc.wd.Stop()
	pc.conn.Close()
}

// enqueue allocates a request id, registers its reply waiter, and frames the
// request into the connection's pending buffer, all under one lock. If no
// write is in flight it flushes the buffer itself; otherwise the flushing
// caller's next swap takes the frame. An encoding failure leaves the buffer
// and the connection untouched.
func (pc *pipeConn) enqueue(req Request, deadline time.Time) (uint32, *waiter, error) {
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return 0, nil, err
	}
	pc.nextID++
	id := pc.nextID
	n := len(pc.pending)
	var err error
	pc.pending, err = AppendRequestFrame(pc.pending, req, id, true)
	if err != nil {
		pc.pending = pc.pending[:n]
		pc.mu.Unlock()
		return 0, nil, &encodeError{err}
	}
	w := waiterPool.Get().(*waiter)
	w.deadline = deadline
	pc.pend[id] = w
	write := !pc.writing
	pc.writing = true
	pc.mu.Unlock()
	if write {
		pc.flush()
	}
	return id, w, nil
}

// deregister abandons a request (caller cancelled); the eventual reply is
// dropped by readLoop.
func (pc *pipeConn) deregister(id uint32) {
	pc.mu.Lock()
	delete(pc.pend, id)
	pc.mu.Unlock()
}

func (pc *pipeConn) failed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err != nil
}

// getPipe returns a live pipelined connection, dialing a replacement for a
// dead or missing round-robin slot. Dials are per-slot singleflight: the
// first caller to find a slot empty dials it while later callers park until
// the slot settles, so a burst of workers starting against a cold pool costs
// PoolSize dials — not one per worker, with the losers' connections (and
// their read buffers, goroutines, and server-side accepts) thrown away.
func (c *Client) getPipe() (*pipeConn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("server: client closed")
		}
		if c.pipes == nil {
			c.pipes = make([]*pipeConn, c.cfg.PoolSize)
			c.dialing = make([]chan struct{}, c.cfg.PoolSize)
		}
		c.rr++
		slot := int(c.rr % uint64(len(c.pipes)))
		if pc := c.pipes[slot]; pc != nil && !pc.failed() {
			c.mu.Unlock()
			return pc, nil
		}
		if ch := c.dialing[slot]; ch != nil {
			// Someone is already dialing this slot; wait for it to settle
			// and retry. The retry re-rolls rr, so waiters spread across
			// whatever slots are live by then.
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		ch := make(chan struct{})
		c.dialing[slot] = ch
		c.mu.Unlock()

		conn, err := c.dial()
		var pc *pipeConn
		if err == nil {
			pc = newPipeConn(conn, c.cfg.Pipeline, c.cfg.RequestTimeout)
		}
		c.mu.Lock()
		c.dialing[slot] = nil
		close(ch)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			pc.fail(errors.New("server: client closed"))
			return nil, errors.New("server: client closed")
		}
		c.pipes[slot] = pc
		c.mu.Unlock()
		return pc, nil
	}
}

// exchangePipelined is one attempt over a tagged (pipelined) connection. A
// request that outlives its deadline fails the whole connection rather than
// waiting forever: on a multiplexed stream a missing reply cannot be
// distinguished from a desynchronized one, and the retry path dials fresh —
// the connection's watchdog timer detects the overdue reply, so the caller
// parks on nothing but its waiter (and the rare caller context).
func (c *Client) exchangePipelined(ctx context.Context, req Request, handle func(Frame) error) error {
	pc, err := c.getPipe()
	if err != nil {
		return err
	}
	deadline := c.deadlineFor(ctx)
	select {
	case pc.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-pc.sem }()

	id, w, err := pc.enqueue(req, deadline)
	if err != nil {
		return err
	}
	select {
	case resp, ok := <-w.ch:
		if !ok {
			pc.mu.Lock()
			err := pc.err
			pc.mu.Unlock()
			return fmt.Errorf("server: pipelined connection failed: %w", err)
		}
		var herr error
		if resp.Verb == VerbError {
			herr = &ServerError{Msg: string(resp.Payload)}
		} else {
			herr = handle(resp)
		}
		// The reply is consumed; recycle its buffer and the waiter.
		putRespBuf(w.buf)
		w.buf = nil
		waiterPool.Put(w)
		return herr
	case <-ctx.Done():
		pc.deregister(id)
		return ctx.Err()
	}
}

// retryDelay computes the sleep before retry `attempt` (1-based): full
// jitter over an exponentially growing window. A deterministic doubling
// schedule synchronizes every client that failed at the same moment — they
// all hammer the recovering server again in phase; sampling uniformly from
// (0, base<<(attempt-1)] decorrelates them while keeping the same mean
// growth.
func retryDelay(base time.Duration, attempt int) time.Duration {
	window := base << (attempt - 1)
	if window <= 0 { // shift overflow on absurd attempt counts
		window = base
	}
	return time.Duration(rand.Int64N(int64(window))) + 1
}

// wantVerb rejects a reply that does not carry verb want: any other is a
// desynchronized or foreign stream.
func wantVerb(f Frame, want Verb) error {
	if f.Verb != want {
		return fmt.Errorf("server: unexpected reply verb 0x%02x", uint8(f.Verb))
	}
	return nil
}

// do runs req and decodes its answer, a result frame of verb want.
func (c *Client) do(ctx context.Context, req Request, want Verb) (Result, error) {
	var res Result
	err := c.exchange(ctx, req, func(f Frame) error {
		if err := wantVerb(f, want); err != nil {
			return err
		}
		return DecodeResultInto(f, &res) // copies out of the frame payload
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// doJSON runs an admin request and parses its JSON reply, of verb want, into v.
func (c *Client) doJSON(ctx context.Context, req Request, want Verb, v any) error {
	return c.exchange(ctx, req, func(f Frame) error {
		if err := wantVerb(f, want); err != nil {
			return err
		}
		if err := json.Unmarshal(f.Payload, v); err != nil {
			return fmt.Errorf("server: parsing %s reply: %w", verbName(req.Verb), err)
		}
		return nil
	})
}

// PointCtx returns all stored records whose key equals key exactly.
// Cancelling ctx, or a context deadline sooner than RequestTimeout, bounds
// the request — as for every call that takes one.
func (c *Client) PointCtx(ctx context.Context, key geom.Point) ([]geom.Point, QueryInfo, error) {
	res, err := c.do(ctx, Request{Verb: VerbPoint, Key: key}, VerbPoints)
	return res.Points, res.Info, err
}

// RangeCtx returns all stored records inside the closed query box.
func (c *Client) RangeCtx(ctx context.Context, q geom.Rect) ([]geom.Point, QueryInfo, error) {
	res, err := c.do(ctx, Request{Verb: VerbRange, Query: q}, VerbPoints)
	return res.Points, res.Info, err
}

// RangeCountCtx returns how many stored records lie inside the closed query
// box, without shipping them.
func (c *Client) RangeCountCtx(ctx context.Context, q geom.Rect) (int, QueryInfo, error) {
	res, err := c.do(ctx, Request{Verb: VerbRange, Query: q, CountOnly: true}, VerbCount)
	return res.Count, res.Info, err
}

// PartialMatchCtx returns records matching vals on every specified
// dimension; NaN marks an unspecified attribute.
func (c *Client) PartialMatchCtx(ctx context.Context, vals []float64) ([]geom.Point, QueryInfo, error) {
	res, err := c.do(ctx, Request{Verb: VerbPartial, Vals: vals}, VerbPoints)
	return res.Points, res.Info, err
}

// KNNCtx returns the k stored records nearest to key, closest first.
func (c *Client) KNNCtx(ctx context.Context, key geom.Point, k int) ([]geom.Point, QueryInfo, error) {
	res, err := c.do(ctx, Request{Verb: VerbKNN, Key: key, K: k}, VerbPoints)
	return res.Points, res.Info, err
}

// InsertCtx stores one record on a writable server. The returned Splits
// counts bucket splits the insert triggered. Writes are not idempotent, so a
// transport failure is never retried: an error means the insert's fate is
// unknown (it may or may not have been applied and journaled).
func (c *Client) InsertCtx(ctx context.Context, key geom.Point) (Result, error) {
	return c.do(ctx, Request{Verb: VerbInsert, Key: key}, VerbWriteOK)
}

// DeleteCtx removes one record with exactly the given key from a writable
// server. Applied is false when no matching record existed. Like InsertCtx,
// transport failures are never retried.
func (c *Client) DeleteCtx(ctx context.Context, key geom.Point) (Result, error) {
	return c.do(ctx, Request{Verb: VerbDelete, Key: key}, VerbWriteOK)
}

// Stats fetches the server's statistics snapshot via the STATS verb.
func (c *Client) Stats() (Snapshot, error) {
	var s Snapshot
	err := c.doJSON(context.Background(), Request{Verb: VerbStats}, VerbStatsReply, &s)
	return s, err
}

// Fault runs one FAULT admin command — "status", "clear", or a fault spec
// to arm (see internal/fault for the grammar) — and returns the registry's
// post-command status. FAULT is not idempotent, so transport failures are
// never retried; ctx cancels the round trip.
func (c *Client) Fault(ctx context.Context, cmd string) (FaultStatus, error) {
	var st FaultStatus
	err := c.doJSON(ctx, Request{Verb: VerbFault, FaultCmd: cmd}, VerbFaultReply, &st)
	return st, err
}

// Close releases all pooled and pipelined connections. In-flight requests
// on borrowed pooled connections complete; pipelined requests fail with a
// closed-client error.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	pipes := c.pipes
	c.idle, c.pipes = nil, nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	for _, pc := range pipes {
		if pc != nil {
			pc.fail(errors.New("server: client closed"))
		}
	}
}
