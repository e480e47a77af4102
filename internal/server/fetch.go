package server

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"sync"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// publishLeads completes every bucket of a successfully read batch in the
// cache. A failed read completes nothing: no query waits on another's load,
// so its handle is simply dropped.
func (s *Server) publishLeads(loads []*cache.Pending, recs []geom.Flat) {
	for i, p := range loads {
		s.bcache.Complete(p, recs[i])
	}
}

// fetchBuckets resolves a query's bucket set, qs.ids, into qs.recs (parallel
// to ids, pre-zeroed by the caller): cache hits are filled immediately, and
// every miss is this query's own read, batched per disk and sent to the disk
// workers' queues. A degraded return leaves missed buckets as zero Flats,
// which scan as empty.
//
// The common case — every bucket resident — is one Resident call: no lock,
// no allocation, one add to the cache's hit counter.
func (s *Server) fetchBuckets(ctx context.Context, tr *Trace, qs *qstate) (QueryInfo, error) {
	cacheStart := s.traceNow(tr)
	n := s.bcache.Resident(qs.ids, qs.recs)
	if n < len(qs.ids) {
		return s.fetchBucketsSlow(ctx, tr, qs, n, cacheStart)
	}
	s.traceSince(tr, stageCache, cacheStart)
	tr.noteCache(n, 0)
	return QueryInfo{Buckets: n}, nil
}

// leadBatch is one disk's worth of buckets a query must read itself, with
// each bucket's index into the query's recs slice riding along so responses
// scatter straight into place, the cache's handle for the load, stamped
// before the read, so a load an Invalidate overtook is not cached, and out,
// the room the read decodes into, parallel to ids. rerouted marks a
// failover's batch: its bucket is read from a copy after the one it was
// routed to.
type leadBatch struct {
	ids      []int32
	idxs     []int
	loads    []*cache.Pending
	out      []geom.Flat
	rerouted bool
}

// batches returns the query's per-disk lead batches, one for each disk and
// every one empty. They keep their slices from query to query; dropLeads
// clears what they point at once the answers are copied out.
func (qs *qstate) batches(disks int) []leadBatch {
	if len(qs.leads) != disks {
		qs.leads = make([]leadBatch, disks)
	}
	for d := range qs.leads {
		b := &qs.leads[d]
		b.ids, b.idxs, b.loads, b.out = b.ids[:0], b.idxs[:0], b.loads[:0], b.out[:0]
	}
	return qs.leads
}

// fetchBucketsSlow is the miss path of fetchBuckets, entered at ids[i], the
// first bucket that was not resident: recs[:i] hold the hits before it.
func (s *Server) fetchBucketsSlow(ctx context.Context, tr *Trace, qs *qstate, i int, cacheStart time.Time) (QueryInfo, error) {
	defer qs.dropLeads()
	ids, recs := qs.ids, qs.recs
	info := QueryInfo{Buckets: i}
	leads := qs.batches(len(s.sched)) // by disk: the buckets this query must read
	nleads, hits := 0, 0
	var err error
	for ; i < len(ids); i++ {
		r := s.bcache.Acquire(ids[i])
		if r.Hit {
			recs[i] = r.Rec
			info.Buckets++
			hits++
			continue
		}
		// A miss is read from its first whole copy in owner order. When no
		// copy is whole, the primary's read fails with the store's stale-copy
		// error and takes the failed-read path like any other. Acquire took
		// the stamp before any placement lookup of this read, here or in the
		// store: a write whose swap precedes the lookup is read, and one whose
		// swap follows it invalidates after the stamp, so the load is fenced.
		disk, live := s.st.PickOwner(ids[i], -1)
		if !live {
			pl, ok := s.st.Placement(ids[i])
			if !ok {
				err = fmt.Errorf("bucket %d not in store", ids[i])
				break
			}
			disk = pl.OwnerDisks[0]
		}
		b := &leads[disk]
		b.ids = append(b.ids, ids[i])
		b.idxs = append(b.idxs, i)
		b.loads = append(b.loads, r.Pending)
		b.out = append(b.out, geom.Flat{})
		nleads++
	}
	s.bcache.CountHits(hits)
	s.traceSince(tr, stageCache, cacheStart)
	if err != nil {
		return info, err
	}
	tr.noteCache(info.Buckets, nleads)

	// missedDisks records the disks of buckets lost while degraded mode
	// absorbs the failure; the answer then covers only the surviving disks
	// (a strict subset of the full result, never wrong records, because
	// buckets are whole-disk resident).
	var missedDisks map[int]bool
	degrade := func(disk int) {
		if missedDisks == nil {
			missedDisks = make(map[int]bool)
		}
		missedDisks[disk] = true
	}
	if err := s.readLeads(ctx, tr, qs, nleads, &info, degrade); err != nil {
		return info, err
	}
	if len(missedDisks) > 0 {
		info.Degraded = true
		info.MissedDisks = len(missedDisks)
	}
	return info, nil
}

// readLeads reads the buckets a query missed into qs.recs: one batch per
// disk, each put on its disk's queue (submit). Once all of them are queued,
// the query reads itself any that is at the front of its queue while nobody
// reads that disk (readOwn); the disk workers read the rest and answer on
// the response channel. A batch whose copies failed (copyFailed) fails over
// bucket by bucket through the same queues; a bucket no owner is left for is
// absorbed through degrade, or fails the query. Whoever reads a successful
// batch caches its buckets.
func (s *Server) readLeads(ctx context.Context, tr *Trace, qs *qstate, nleads int,
	info *QueryInfo, degrade func(int)) error {
	if nleads == 0 {
		return nil
	}
	// The response channel is buffered for every lead bucket: outstanding
	// batches always hold disjoint lead sets (a failed batch is regrouped
	// only after its answer is in), so at most nleads responses can ever be
	// in flight and disk workers never block on an abandoned query. The
	// gather loop waits for every submitted batch (an expired query's batch
	// is answered without a read), so the channel is empty when it ends and
	// the pooled state keeps it for the next query. A submit blocks only
	// when MaxInflight requests are already queued on the disk, which takes
	// a failover burst; the worker drains it, waiting on nothing but a
	// query's read in progress.
	if cap(qs.resp) < nleads {
		qs.resp = make(chan fetchResp, nleads)
	}
	resp := qs.resp
	own := qs.own[:0]
	for disk, b := range qs.leads {
		if len(b.ids) > 0 {
			own = append(own, s.submit(disk, fetchReq{leadBatch: b, ctx: ctx, resp: resp, tr: tr}))
		}
	}
	outstanding := len(own)
	var nPrimary, nSecondary int64
	var err error
	for outstanding > 0 {
		var r fetchResp
		var read bool
		if own, r, read = s.readOwn(own); !read {
			r = <-resp
		}
		outstanding--
		switch {
		case r.err == nil:
			for k, idx := range r.idxs {
				qs.recs[idx] = r.recs[k]
			}
			info.Buckets += len(r.ids)
			info.Pages += r.pages
			if s.replicated && r.rerouted {
				nSecondary += int64(len(r.ids))
			} else if s.replicated {
				nPrimary += int64(len(r.ids))
			}
		case err == nil && copyFailed(ctx, r.err):
			var n int
			own, n = s.failOver(ctx, tr, own, resp, r, degrade, &err)
			outstanding += n
		default:
			// The query is over, or failing already.
			if err == nil {
				err = r.err
			}
		}
	}
	qs.own = own
	if nPrimary > 0 {
		s.met.replicaReadsPrimary.Add(nPrimary)
	}
	if nSecondary > 0 {
		s.met.replicaReadsSecondary.Add(nSecondary)
	}
	return err
}

// dropLeads makes the pooled batches and requests let go of what a query's
// reads put in them — cache handles, decoded arenas, its context and trace —
// once the answers are in recs.
func (qs *qstate) dropLeads() {
	for i := range qs.leads {
		clear(qs.leads[i].loads)
		clear(qs.leads[i].out)
	}
	clear(qs.own[:cap(qs.own)])
	qs.own = qs.own[:0]
}

// readOwn reads one of the query's queued requests itself, if one is at the
// front of its disk's queue while nobody reads that disk, and reports whether
// it did. Requests a disk worker has taken meanwhile leave own: their
// answers come on the response channel.
func (s *Server) readOwn(own []fetchReq) ([]fetchReq, fetchResp, bool) {
	for i := 0; i < len(own); {
		req := own[i]
		h := &s.heads[req.disk]
		mine, gone := h.take(req.seq)
		if !mine && !gone {
			i++
			continue
		}
		last := len(own) - 1
		own[i] = own[last]
		own = own[:last]
		if mine {
			r := s.serveOne(req.disk, req)
			h.release()
			s.met.batchesByQuery.Add(1)
			return own, r, true
		}
	}
	return own, fetchResp{}, false
}

// failOver reroutes one batch whose copies failed to surviving owner disks:
// each bucket is resubmitted to its next whole copy after the disk that
// failed (Store.PickOwner), so its owners are tried in order and each at most
// once, as its OWN single-bucket batch, which joins own like any other. The
// split is deliberate: a failed store batch fails every bucket riding in it,
// so a bucket read alone from its next copy is lost only when that copy
// fails, not when a batch-mate's does. Buckets whose every owner already
// failed — at r = 1 the first failure does that — are absorbed as degraded
// (or surfaced via *errp). It returns own and the number of batches
// resubmitted, which the gather loop must keep waiting for.
func (s *Server) failOver(ctx context.Context, tr *Trace, own []fetchReq, resp chan fetchResp,
	r fetchResp, degrade func(int), errp *error) ([]fetchReq, int) {
	lost, resubmitted := false, 0
	for k, id := range r.ids {
		disk, ok := s.st.PickOwner(id, r.disk)
		if !ok {
			lost = true
			continue
		}
		one := leadBatch{r.ids[k : k+1], r.idxs[k : k+1], r.loads[k : k+1], r.out[k : k+1], true}
		own = append(own, s.submit(disk, fetchReq{leadBatch: one, ctx: ctx, resp: resp, tr: tr}))
		s.met.replicaFailover.Add(1)
		resubmitted++
	}
	if lost {
		if s.cfg.Degraded {
			degrade(r.disk)
		} else if *errp == nil {
			*errp = r.err
		}
	}
	return own, resubmitted
}

// copyFailed is the one rule for a read that did not come back whole: while
// the query's own context is live, any error but a context error — a short
// read, EIO, a checksum mismatch, another bucket's page, a missed write, an
// injected fault — failed the copy it read, which is then failed over to the
// next owner, absorbed as degraded, or returned. A context error means the
// query gave up, not that a copy failed.
func copyFailed(ctx context.Context, err error) bool {
	return ctx.Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// fetchReq asks for a batch of buckets, all resident on one disk. idxs
// carries each bucket's index in the submitting query's recs slice so the
// response can be scattered into place without a map.
type fetchReq struct {
	leadBatch
	ctx  context.Context  // the owning query; expired fetches are skipped
	resp chan<- fetchResp // buffered by the submitter; never blocks
	tr   *Trace           // the owning query's stage trace; nil when untraced
	enq  time.Time        // submit time, for the fetch_wait stage (zero when untraced)
	disk int              // the disk whose queue holds it (submit)
	seq  uint64           // its number in that queue (submit)
}

type fetchResp struct {
	leadBatch             // the requested batch, echoed (error accounting, scatter, failover)
	recs      []geom.Flat // decoded arenas, parallel to ids; nil on error
	disk      int         // which disk served (or failed) the batch
	pages     int
	err       error
}

// diskHead decides who reads one disk next. Requests are numbered in the
// order they enter the disk's queue, and request number taken is the front:
// every request before it has been taken by a reader. A request is taken
// only at the front and only while nobody reads the disk (busy) — by the
// disk's worker once it has received it, or by the query that submitted it,
// whichever locks first. So a disk has one reader at a time and is read in
// arrival order, as in the paper's model, whoever reads it (DESIGN S56).
type diskHead struct {
	sendMu sync.Mutex // held across numbering and enqueueing: queue order is number order
	sent   uint64     // requests numbered, under sendMu

	mu    sync.Mutex
	idle  sync.Cond // signalled when a read ends; the worker waits on it
	recv  uint64    // requests the worker has received
	taken uint64
	busy  bool
}

// take is the query's side: it takes request seq if it is at the front and
// nobody reads the disk (mine), or reports it gone — taken by the worker,
// which answers it on the response channel.
func (h *diskHead) take(seq uint64) (mine, gone bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case seq < h.taken:
		return false, true
	case seq == h.taken && !h.busy:
		h.taken++
		h.busy = true
		return true, false
	}
	return false, false
}

// next is the worker's side, for the request it has just received: that
// request is at the front, so the worker takes it as soon as nobody reads the
// disk — unless its query took it first, when next reports false.
func (h *diskHead) next() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.recv
	h.recv++
	for n == h.taken && h.busy {
		h.idle.Wait()
	}
	if n < h.taken {
		return false
	}
	h.taken++
	h.busy = true
	return true
}

// release ends a read of the disk.
func (h *diskHead) release() {
	h.mu.Lock()
	h.busy = false
	h.mu.Unlock()
	h.idle.Signal()
}

// submit numbers req and puts it at the back of its disk's queue; it returns
// the request as queued, for its query to read itself should it reach the
// front while the disk is idle. A send that finds the queue full blocks
// holding sendMu: that delays only other submitters to this disk, who would
// wait for room anyway, and the worker that makes room never takes it.
func (s *Server) submit(disk int, req fetchReq) fetchReq {
	req.disk, req.enq = disk, s.traceNow(req.tr)
	h := &s.heads[disk]
	h.sendMu.Lock()
	req.seq = h.sent
	h.sent++
	s.sched[disk] <- req
	h.sendMu.Unlock()
	return req
}

// diskWorker is one disk's I/O worker: one head per spindle, as in the
// paper's model. It receives its queue in arrival order and reads every
// request whose query has not read it first, one at a time.
func (s *Server) diskWorker(disk int, q <-chan fetchReq) {
	defer s.fetchWg.Done()
	h := &s.heads[disk]
	for req := range q {
		if !h.next() {
			continue
		}
		r := s.serveOne(disk, req)
		h.release()
		s.met.batchesByWorker.Add(1)
		req.resp <- r
	}
}

// serveOne reads a single request once, as its own store batch under its own
// context, on whichever goroutine took it off the disk's queue. The store's
// span planner (nextSpan in internal/store) alone decides which positioned
// reads serve it; nothing here reasons about page positions. Success is
// published to the cache here; a failed batch is the gather loop's to fail
// over to a surviving owner disk (copyFailed) — it is never read again from
// this disk. A query whose deadline already expired has abandoned the fetch:
// it reads nothing, so its backlog does not starve live queries.
func (s *Server) serveOne(disk int, req fetchReq) fetchResp {
	// Untraced requests take the planner's counts but skip its clock reads.
	tm := store.Timing{CountsOnly: req.tr == nil}
	if req.tr != nil {
		// Queue wait: submit to the start of the read, i.e. time spent
		// behind other batches on this disk.
		s.traceSince(req.tr, stageFetchWait, req.enq)
	}
	r := fetchResp{leadBatch: req.leadBatch, disk: disk, err: req.ctx.Err()}
	if r.err == nil {
		// The runtime/trace region brackets the batch's read so `go tool
		// trace` shows each disk's duty cycle. StartRegion is a no-op
		// unless tracing is active.
		region := rtrace.StartRegion(req.ctx, "gridserver.fetchBatch")
		r.pages, r.err = s.st.ReadFlatsFromTimed(req.ctx, disk, req.ids, req.out, &tm)
		region.End()
	}
	if req.tr != nil {
		req.tr.add(stagePread, tm.Pread)
		req.tr.add(stageDecode, tm.Decode)
	}
	if r.err != nil {
		r.pages = 0
		return r
	}
	s.met.diskFetches[disk].Add(int64(len(req.ids)))
	s.met.noteRead(r.pages, &tm)
	s.publishLeads(req.loads, req.out)
	r.recs = req.out
	return r
}
