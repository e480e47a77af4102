package server

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// publishLeads completes every bucket of a successfully read batch in the
// cache. A failed read completes nothing: no query waits on another's load,
// so its handle is simply dropped.
func (s *Server) publishLeads(loads []*cache.Pending, recs []geom.Flat) {
	if s.bcache == nil {
		return
	}
	for i, p := range loads {
		s.bcache.Complete(p, recs[i], s.st.PagesFor(recs[i].Len()))
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
	n := 0
	if s.bcache != nil {
		n = s.bcache.Resident(qs.ids, qs.recs)
	}
	if n < len(qs.ids) {
		return s.fetchBucketsSlow(ctx, tr, qs, n, cacheStart)
	}
	s.traceSince(tr, stageCache, cacheStart)
	tr.noteCache(n, 0)
	return QueryInfo{Buckets: n}, nil
}

// leadBatch is one disk's worth of buckets a query must read itself, with
// each bucket's index into the query's recs slice riding along so responses
// scatter straight into place, and the cache's handle for the load, stamped
// before the read, so a load an Invalidate overtook is not cached. rerouted
// marks a failover's batch: its bucket is read from a copy after the one it
// was routed to.
type leadBatch struct {
	ids      []int32
	idxs     []int
	loads    []*cache.Pending
	rerouted bool
}

// batches returns the query's per-disk lead batches, one for each disk and
// every one empty. They keep their slices from query to query; the loads
// are cleared, so the pooled state holds no load's result alive.
func (qs *qstate) batches(disks int) []leadBatch {
	if len(qs.leads) != disks {
		qs.leads = make([]leadBatch, disks)
	}
	for d := range qs.leads {
		b := &qs.leads[d]
		clear(b.loads[:cap(b.loads)])
		b.ids, b.idxs, b.loads = b.ids[:0], b.idxs[:0], b.loads[:0]
	}
	return qs.leads
}

// fetchBucketsSlow is the miss path of fetchBuckets, entered at ids[i], the
// first bucket that was not resident: recs[:i] hold the hits before it.
func (s *Server) fetchBucketsSlow(ctx context.Context, tr *Trace, qs *qstate, i int, cacheStart time.Time) (QueryInfo, error) {
	ids, recs := qs.ids, qs.recs
	info := QueryInfo{Buckets: i}
	leads := qs.batches(len(s.sched)) // by disk: the buckets this query must read
	nleads, hits := 0, 0
	var err error
	for ; i < len(ids); i++ {
		// No cache: every bucket is this query's own read.
		var r cache.AcquireResult
		if s.bcache != nil {
			r = s.bcache.Acquire(ids[i])
		}
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
		nleads++
	}
	if s.bcache != nil {
		s.bcache.CountHits(hits)
	}
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
	if err := s.readLeads(ctx, tr, leads, nleads, recs, &info, degrade); err != nil {
		return info, err
	}
	if len(missedDisks) > 0 {
		info.Degraded = true
		info.MissedDisks = len(missedDisks)
	}
	return info, nil
}

// readLeads reads the buckets a query missed into recs: one batch per disk,
// handed to the disk workers. A batch whose copies failed (copyFailed) fails
// over bucket by bucket; a bucket no owner is left for is absorbed through
// degrade, or fails the query. The disk workers cache the buckets of
// successful batches.
func (s *Server) readLeads(ctx context.Context, tr *Trace, leads []leadBatch, nleads int,
	recs []geom.Flat, info *QueryInfo, degrade func(int)) error {
	if nleads == 0 {
		return nil
	}
	// The response channel is buffered for every lead bucket: outstanding
	// batches always hold disjoint lead sets (a failed batch is regrouped
	// only after its response is drained), so at most nleads responses can
	// ever be in flight and disk workers never block on an abandoned query.
	// The gather loop waits for every submitted batch (the workers answer
	// expired contexts immediately). A send to a disk's queue blocks only
	// when MaxInflight requests are already queued there, which takes a
	// failover burst; the worker drains it without waiting on anyone.
	resp := make(chan fetchResp, nleads)
	outstanding := 0
	for disk, b := range leads {
		if len(b.ids) > 0 {
			s.sched[disk] <- fetchReq{leadBatch: b, ctx: ctx, resp: resp, tr: tr, enq: s.traceNow(tr)}
			outstanding++
		}
	}
	var nPrimary, nSecondary int64
	var err error
	for outstanding > 0 {
		r := <-resp
		outstanding--
		switch {
		case r.err == nil:
			for k := range r.ids {
				recs[r.idxs[k]] = r.recs[k]
				info.Buckets++
			}
			info.Pages += r.pages
			if s.replicated && r.rerouted {
				nSecondary += int64(len(r.ids))
			} else if s.replicated {
				nPrimary += int64(len(r.ids))
			}
		case err == nil && copyFailed(ctx, r.err):
			outstanding += s.failOver(ctx, tr, resp, r, degrade, &err)
		default:
			// The query is over, or failing already.
			if err == nil {
				err = r.err
			}
		}
	}
	if nPrimary > 0 {
		s.met.replicaReadsPrimary.Add(nPrimary)
	}
	if nSecondary > 0 {
		s.met.replicaReadsSecondary.Add(nSecondary)
	}
	return err
}

// failOver reroutes one batch whose copies failed to surviving owner disks:
// each bucket is resubmitted to its next whole copy after the disk that
// failed (Store.PickOwner), so its owners are tried in order and each at most
// once, as its OWN single-bucket batch. The split is deliberate: a failed
// store batch fails every bucket riding in it, so a bucket read alone from
// its next copy is lost only when that copy fails, not when a batch-mate's
// does. Buckets whose every owner already failed — at r = 1 the first
// failure does that — are absorbed as degraded (or surfaced via *errp). It
// returns the number of batches resubmitted, which the gather loop must keep
// waiting for.
func (s *Server) failOver(ctx context.Context, tr *Trace, resp chan fetchResp,
	r fetchResp, degrade func(int), errp *error) int {
	lost, resubmitted := false, 0
	for k, id := range r.ids {
		disk, ok := s.st.PickOwner(id, r.disk)
		if !ok {
			lost = true
			continue
		}
		one := leadBatch{r.ids[k : k+1], r.idxs[k : k+1], r.loads[k : k+1], true}
		s.sched[disk] <- fetchReq{leadBatch: one, ctx: ctx, resp: resp, tr: tr, enq: s.traceNow(tr)}
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
	return resubmitted
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

// fetchReq asks a disk worker for a batch of buckets, all resident on that
// disk. idxs carries each bucket's index in the submitting query's recs
// slice so the response can be scattered into place without a map.
type fetchReq struct {
	leadBatch
	ctx  context.Context  // the owning query; expired fetches are skipped
	resp chan<- fetchResp // buffered by the submitter; never blocks
	tr   *Trace           // the owning query's stage trace; nil when untraced
	enq  time.Time        // submit time, for the fetch_wait stage (zero when untraced)
}

type fetchResp struct {
	leadBatch             // the requested batch, echoed (error accounting, scatter, failover)
	recs      []geom.Flat // decoded arenas, parallel to ids; nil on error
	disk      int         // which disk served (or failed) the batch
	pages     int
	err       error
}

// diskWorker is one disk's I/O worker: one head per spindle, as in the
// paper's model, serving its queue in arrival order, one request at a time.
func (s *Server) diskWorker(disk int, q <-chan fetchReq) {
	defer s.fetchWg.Done()
	for req := range q {
		s.serveOne(disk, req)
	}
}

// serveOne reads a single request once, as its own store batch under its own
// context. The store's span planner (nextSpan in internal/store) alone
// decides which positioned reads serve it; nothing here reasons about page
// positions. Success is published to the cache here; a failed batch is the
// gather loop's to fail over to a surviving owner disk (copyFailed) — it is
// never read again from this disk. A query whose deadline already expired
// has abandoned the fetch: it reads nothing, so its backlog does not starve
// live queries.
func (s *Server) serveOne(disk int, req fetchReq) {
	// Untraced requests take the planner's counts but skip its clock reads.
	tm := store.Timing{CountsOnly: req.tr == nil}
	if req.tr != nil {
		// Queue wait: submit to dequeue, i.e. time spent behind other
		// batches on this spindle.
		s.traceSince(req.tr, stageFetchWait, req.enq)
	}
	var recs []geom.Flat
	pages, err := 0, req.ctx.Err()
	if err == nil {
		// The runtime/trace region brackets the batch's read so `go tool
		// trace` shows each disk worker's duty cycle. StartRegion is a no-op
		// unless tracing is active.
		region := rtrace.StartRegion(req.ctx, "gridserver.fetchBatch")
		recs = make([]geom.Flat, len(req.ids))
		pages, err = s.st.ReadFlatsFromTimed(req.ctx, disk, req.ids, recs, &tm)
		region.End()
	}
	if req.tr != nil {
		req.tr.add(stagePread, tm.Pread)
		req.tr.add(stageDecode, tm.Decode)
	}
	if err != nil {
		recs, pages = nil, 0
	} else {
		s.met.diskFetches[disk].Add(int64(len(req.ids)))
		s.met.noteRead(pages, &tm)
		s.publishLeads(req.loads, recs)
	}
	req.resp <- fetchResp{leadBatch: req.leadBatch, recs: recs, disk: disk, pages: pages, err: err}
}
