package server

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// publishLeads completes every bucket of a successfully read batch in the
// cache, so followers blocked in Pending.Wait unblock with the data.
func (s *Server) publishLeads(loads []*cache.Pending, recs []geom.Flat) {
	if s.bcache == nil {
		return
	}
	for i, p := range loads {
		s.bcache.Complete(p, recs[i], s.st.PagesFor(recs[i].Len()), nil)
	}
}

// failLeads publishes err for every bucket this query volunteered to load,
// so waiting followers unblock and the cache's in-flight table stays clean.
// Used for batches never handed to a disk worker and for batches whose
// failover routes are exhausted; successful batches are published by the
// disk workers.
func (s *Server) failLeads(loads []*cache.Pending, err error) {
	if s.bcache == nil {
		return
	}
	for _, p := range loads {
		s.bcache.Complete(p, geom.Flat{}, 0, err)
	}
}

// fetchBuckets resolves a query's bucket set, qs.ids, into qs.recs (parallel
// to ids, pre-zeroed by the caller): cache hits are filled
// immediately, buckets another in-flight query is already reading are
// joined (singleflight), and the rest are batched per disk and sent to the
// disk workers' queues. Every bucket this query leads is
// published to the cache exactly once — with data or with the error —
// before fetchBuckets returns, so followers never wait on an abandoned
// load. A degraded return leaves missed buckets as zero Flats, which scan
// as empty.
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
	tr.noteCache(n, 0, 0)
	return QueryInfo{Buckets: n}, nil
}

// leadBatch is one disk's worth of buckets a query must read itself, with
// each bucket's index into the query's recs slice riding along so responses
// scatter straight into place, and the cache's handle for the load so its
// completion reaches this load's waiters and no later one's. rerouted marks a
// failover's batch: its bucket is read from a copy after the one it was
// routed to.
type leadBatch struct {
	ids      []int32
	idxs     []int
	loads    []*cache.Pending
	rerouted bool
}

// batches returns the query's per-disk lead batches, one for each disk and
// every one empty. They keep their slices from query to query; the loads
// are cleared, so the pooled state holds no leader's result alive.
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
	type join struct {
		idx int
		id  int32
		p   *cache.Pending
	}
	var joins []join
	leads := qs.batches(len(s.sched)) // by disk: the buckets this query must read
	nleads, hits := 0, 0
	// take files bucket id, recs[idx], by the cache's answer for it: a hit
	// is filled in (and counted in the cache once, by the caller of take), a
	// join waits for its leader below, and a load this query leads goes into
	// the batch of the disk it will be read from.
	take := func(idx int, id int32, r cache.AcquireResult) error {
		switch {
		case r.Hit:
			recs[idx] = r.Rec
			info.Buckets++
			hits++
			return nil
		case !r.Leader:
			joins = append(joins, join{idx, id, r.Pending})
			return nil
		}
		// A lead is read from its first whole copy in owner order. When no
		// copy is whole, the primary's read fails with the store's stale-copy
		// error and takes the failed-read path like any other.
		disk, live := s.st.PickOwner(id, -1)
		if !live {
			pl, ok := s.st.Placement(id)
			if !ok {
				err := fmt.Errorf("bucket %d not in store", id)
				s.failLeads([]*cache.Pending{r.Pending}, err)
				for _, b := range leads {
					s.failLeads(b.loads, err)
				}
				return err
			}
			disk = pl.Disk
		}
		b := &leads[disk]
		b.ids = append(b.ids, id)
		b.idxs = append(b.idxs, idx)
		b.loads = append(b.loads, r.Pending)
		nleads++
		return nil
	}
	var err error
	for ; i < len(ids) && err == nil; i++ {
		// No cache: every bucket is this query's own read.
		r := cache.AcquireResult{Leader: true}
		if s.bcache != nil {
			r = s.bcache.Acquire(ids[i])
		}
		err = take(i, ids[i], r)
	}
	if s.bcache != nil {
		s.bcache.CountHits(hits)
	}
	s.traceSince(tr, stageCache, cacheStart)
	if err != nil {
		return info, err
	}
	tr.noteCache(info.Buckets, len(joins), nleads)

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
	for {
		if err := s.readLeads(ctx, tr, leads, nleads, recs, &info, degrade); err != nil {
			return info, err
		}
		leads, nleads = qs.batches(len(leads)), 0

		// Collect joined loads last: their leaders read in parallel with
		// ours. A leader's failed read degrades this query too — the
		// bucket's copies are what failed — but a load that failed for no
		// copy's fault while this query is live was abandoned by its
		// leader's query: the bucket goes round again, to be read by this
		// query or joined anew. Waiting on a leader counts as cache time.
		joinStart := s.traceNow(tr)
		var orphans []join
		for _, j := range joins {
			rec, _, werr := j.p.Wait(ctx)
			switch {
			case werr == nil:
				recs[j.idx] = rec
				info.Buckets++
			case ctx.Err() == nil && !copyFailed(ctx, werr):
				orphans = append(orphans, j)
			default:
				if pl, ok := s.st.Placement(j.id); ok && s.cfg.Degraded && copyFailed(ctx, werr) {
					degrade(pl.Disk)
				} else {
					err = werr
				}
			}
			if err != nil {
				break
			}
		}
		s.traceSince(tr, stageCache, joinStart)
		if err != nil {
			return info, err
		}
		if len(orphans) == 0 {
			break
		}
		joins, hits = nil, 0
		for _, j := range orphans {
			if err = take(j.idx, j.id, s.bcache.Acquire(j.id)); err != nil {
				break
			}
		}
		s.bcache.CountHits(hits)
		if err != nil {
			return info, err
		}
	}
	if len(missedDisks) > 0 {
		info.Degraded = true
		info.MissedDisks = len(missedDisks)
	}
	return info, nil
}

// readLeads reads the buckets a query leads into recs: one batch per disk,
// handed to the disk workers. A batch whose copies failed (copyFailed) fails
// over bucket by bucket; a bucket no owner is left for is absorbed through
// degrade, or fails the query. Leads of successful batches are completed by
// the disk workers, every other lead here, before readLeads returns.
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
			// The query is over, or failing already: complete the leads
			// with the error so followers unblock.
			s.failLeads(r.loads, r.err)
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
// once, as its OWN single-bucket batch with a fresh retry
// budget. The split is deliberate — failover is the last stop before losing
// the bucket, and in the original coalesced batch one unlucky injected pread
// fails every bucket riding along; independent retries make the per-bucket
// survival odds (1-p)^attempts instead of (1-p)^(attempts·runs). Buckets
// whose every owner already failed — at r = 1 the first failure does that —
// are completed with the original error and absorbed as degraded (or
// surfaced via *errp). It returns the number of batches resubmitted, which
// the gather loop must keep waiting for.
func (s *Server) failOver(ctx context.Context, tr *Trace, resp chan fetchResp,
	r fetchResp, degrade func(int), errp *error) int {
	var lost []*cache.Pending
	resubmitted := 0
	for k, id := range r.ids {
		disk, ok := s.st.PickOwner(id, r.disk)
		if !ok {
			lost = append(lost, r.loads[k])
			continue
		}
		one := leadBatch{r.ids[k : k+1], r.idxs[k : k+1], r.loads[k : k+1], true}
		s.sched[disk] <- fetchReq{leadBatch: one, ctx: ctx, resp: resp, tr: tr, enq: s.traceNow(tr)}
		s.met.replicaFailover.Add(1)
		resubmitted++
	}
	if len(lost) > 0 {
		s.failLeads(lost, r.err)
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
// next owner, absorbed as degraded, or returned. A context error means a
// query (this one, or the leader it joined) gave up, not that a copy failed.
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

// serveOne serves a single request as its own store batch under its own
// context. The store's span planner (nextSpan in internal/store) alone
// decides which positioned reads serve it; nothing here reasons about page
// positions. Success is published to the cache here; a failed batch's leads
// stay pending because the gather loop may still fail the batch over to a
// surviving owner disk — only when every route is exhausted does the gather
// loop complete them with the error.
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
		s.publishLeads(req.loads, recs)
	}
	req.resp <- fetchResp{leadBatch: req.leadBatch, recs: recs, disk: disk, pages: pages, err: err}
}

// fetchBatch runs one disk batch with the bounded retry/backoff policy. Only
// injected faults (torn reads among them, which wrap fault.ErrInjected) are
// retried on the same disk: they model a fault that may not fire again, while
// a corrupt, misdirected or missing page reads back the same. Every failure is
// the gather loop's to fail over (copyFailed). A query whose deadline already
// expired has abandoned the fetch: it reads nothing, so its backlog does not
// starve live queries, and it stops retrying at once.
func (s *Server) fetchBatch(ctx context.Context, disk int, ids []int32, tr *Trace, tm *store.Timing) ([]geom.Flat, int, error) {
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		recs := make([]geom.Flat, len(ids))
		pages, err := s.st.ReadFlatsFromTimed(ctx, disk, ids, recs, tm)
		if err == nil {
			return recs, pages, nil
		}
		if !fault.IsInjected(err) || attempt > s.cfg.FetchRetries || ctx.Err() != nil {
			return nil, 0, err
		}
		s.met.diskRetries.Add(1)
		backoffStart := s.traceNow(tr)
		serr := fault.Sleep(ctx, retryDelay(fetchBackoff, attempt))
		s.traceSince(tr, stageBackoff, backoffStart)
		if serr != nil {
			return nil, 0, err
		}
	}
}
