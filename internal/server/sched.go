package server

// Per-disk I/O submission. Queries append to the disk's request ring and poke
// its worker. The worker drains the whole ring in one window and serves the
// window's requests one after another, each as its own store batch read under
// its own context, sending each completion to its query's response channel.
//
// The contract with the store is ids in, flats and counts out: which
// positioned reads serve a batch — how wanted pages group into spans and
// which gaps are read through — is the store's span planner's decision alone
// (nextSpan in internal/store); nothing here reasons about page positions.
// The planner reports what it did through store.Timing.

import (
	"context"
	rtrace "runtime/trace"
	"sync"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// fetchReq asks a disk worker for a batch of buckets, all resident on that
// disk. idxs carries each bucket's index in the submitting query's recs
// slice so the response can be scattered into place without a map.
type fetchReq struct {
	ids  []int32
	idxs []int
	ctx  context.Context  // the owning query; expired fetches are skipped
	resp chan<- fetchResp // buffered by the submitter; never blocks
	tr   *Trace           // the owning query's stage trace; nil when untraced
	enq  time.Time        // submit time, for the fetch_wait stage (zero when untraced)
}

type fetchResp struct {
	ids   []int32     // the requested batch (echoed for error accounting)
	idxs  []int       // echoed recs indices, parallel to ids
	recs  []geom.Flat // decoded arenas, parallel to ids; nil on error
	disk  int         // which disk served (or failed) the batch
	pages int
	err   error
}

// diskQueue is one disk's submission ring: submitters append under a mutex
// and poke the worker through a 1-slot wake channel, so a submission is two
// cheap operations regardless of how deep the backlog is, and the worker
// picks up every request queued while it was busy in one swap.
type diskQueue struct {
	mu     sync.Mutex
	reqs   []fetchReq
	wake   chan struct{}
	closed bool
}

func newDiskQueue() *diskQueue {
	return &diskQueue{wake: make(chan struct{}, 1)}
}

// submit enqueues r and wakes the worker. It reports false — without
// enqueueing — once the queue is closed.
func (q *diskQueue) submit(r fetchReq) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// close marks the queue closed and wakes the worker so it can exit once the
// backlog drains. Callers guarantee no submissions race with close.
func (q *diskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// diskWorker is one disk's I/O worker: one head per spindle, as in the
// paper's model. It swaps the submission ring against an empty one and
// serves the whole window, request by request, before looking again: one
// lock acquisition per window however many requests queued up while a read
// was in flight.
func (s *Server) diskWorker(disk int, q *diskQueue) {
	defer s.fetchWg.Done()
	var window []fetchReq
	for {
		q.mu.Lock()
		window, q.reqs = q.reqs, window[:0]
		closed := q.closed
		q.mu.Unlock()
		if len(window) == 0 {
			if closed {
				return
			}
			<-q.wake
			continue
		}
		for _, req := range window {
			s.serveOne(disk, req)
		}
		// Drop the served requests' references (contexts, response
		// channels) before the next swap parks this array back in the ring.
		clear(window)
	}
}

// serveOne serves a single request. Success is published to the cache
// here; a failed batch's leads stay pending because the gather loop may
// still fail the batch over to a surviving owner disk — only when every
// route is exhausted does the gather loop complete them with the error.
func (s *Server) serveOne(disk int, req fetchReq) {
	// Untraced requests take the planner's counts but skip its clock reads.
	tm := store.Timing{CountsOnly: req.tr == nil}
	if req.tr != nil {
		// Queue wait: submit to dequeue, i.e. time spent behind other
		// batches on this spindle.
		s.traceSince(req.tr, stageFetchWait, req.enq)
	}
	// The runtime/trace region brackets the whole batch (retries and
	// backoff included) so `go tool trace` shows each disk worker's duty
	// cycle. StartRegion is a no-op unless tracing is active.
	region := rtrace.StartRegion(req.ctx, "gridserver.fetchBatch")
	recs, pages, err := s.fetchBatch(req.ctx, disk, req.ids, req.tr, &tm)
	region.End()
	if req.tr != nil {
		req.tr.add(stagePread, tm.Pread)
		req.tr.add(stageDecode, tm.Decode)
	}
	if err == nil {
		s.met.diskFetches[disk].Add(int64(len(req.ids)))
		s.met.noteRead(pages, &tm)
		s.publishLeads(req.ids, recs)
	}
	req.resp <- fetchResp{ids: req.ids, idxs: req.idxs, recs: recs, disk: disk, pages: pages, err: err}
}

// fetchBatch runs one disk batch with the bounded retry/backoff policy. Only
// transient failures are retried: injected faults (including torn reads,
// which wrap fault.ErrInjected). Checksum mismatches are deliberately NOT retried
// here — rereading the same corrupt copy returns the same bytes — but they
// are transient to the gather loop, which fails them over to a surviving
// replica. Structural corruption or unknown buckets fail immediately, and
// an expired query stops retrying at once.
func (s *Server) fetchBatch(ctx context.Context, disk int, ids []int32, tr *Trace, tm *store.Timing) ([]geom.Flat, int, error) {
	for attempt := 1; ; attempt++ {
		recs, pages, err := s.readBatch(ctx, disk, ids, tm)
		if err == nil {
			return recs, pages, nil
		}
		if !fault.IsInjected(err) || attempt > s.cfg.FetchRetries || ctx.Err() != nil {
			return nil, 0, err
		}
		s.met.diskRetries.Add(1)
		backoffStart := s.traceNow(tr)
		serr := fault.Sleep(ctx, retryDelay(s.cfg.FetchBackoff, attempt))
		s.traceSince(tr, stageBackoff, backoffStart)
		if serr != nil {
			return nil, 0, err
		}
	}
}

// readBatch performs one disk's share of a query. A query whose deadline
// already expired has abandoned the fetch; skipping the I/O (checked again
// between simulated-latency sleeps) keeps its backlog from starving live
// queries.
func (s *Server) readBatch(ctx context.Context, disk int, ids []int32, tm *store.Timing) ([]geom.Flat, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if s.cfg.slowFetch > 0 {
		for range ids {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			time.Sleep(s.cfg.slowFetch)
		}
	}
	recs := make([]geom.Flat, len(ids))
	pages, err := s.st.ReadFlatsFromTimed(ctx, disk, ids, recs, tm)
	if err != nil {
		return nil, 0, err
	}
	return recs, pages, nil
}
