package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	rpprof "runtime/pprof"
	"slices"
	"sync"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// qstate is the pooled per-query scratch: the decoded request, the box of a
// partial match or kNN probe, the bucket-id and arena-record slices query
// execution scans over, the per-disk batches of the buckets a fetch reads
// itself (fetchBucketsSlow), the queued requests it may still read on its
// own goroutine and the channel the disk workers answer the others on
// (readLeads), the scan's per-bucket covers and kNN's
// candidate heap. Pooling it keeps the steady-state serving path
// allocation-free.
type qstate struct {
	req    Request
	box    geom.Rect
	ids    []int32
	recs   []geom.Flat
	leads  []leadBatch
	own    []fetchReq
	resp   chan fetchResp
	covers []bucketCover
	near   knnHeap
}

var qstatePool = sync.Pool{New: func() any { return new(qstate) }}

// queryBox returns the pooled query box, dims intervals long, for the verbs
// that build their box themselves (partial match, a kNN probe).
func (qs *qstate) queryBox(dims int) geom.Rect {
	qs.box = slices.Grow(qs.box[:0], dims)[:dims]
	return qs.box
}

// exec is the executor's whole surface: it decodes, admits and executes the
// request in f and appends the inner reply — the reply verb and its payload —
// onto buf. It knows neither the socket nor the wire envelope: the caller has
// already opened a frame on buf and seals it afterwards (reply in conn.go),
// or wants no frame at all. On any failure the reply is VerbError and the
// message, written from where this reply started, so nothing half-encoded is
// left behind. The one limit exec does not check is the frame size of an
// answer that fit its own payload bound: sealing does.
func (s *Server) exec(buf []byte, f Frame) []byte {
	out, err := s.serve(buf, f)
	if err != nil {
		return appendError(out[:len(buf)], err.Error())
	}
	return out
}

var (
	errBusy         = errors.New("server busy: admission queue full past deadline")
	errShuttingDown = errors.New("server shutting down")
)

// serve is exec up to the error reply: it returns the buffer with the inner
// reply appended, or the buffer as far as it grew and the failure. The reply
// verb is fixed by the request shape, so it goes down before execution and
// matching records stream straight in behind it as the scan visits them — no
// intermediate point set, no second copy.
func (s *Server) serve(buf []byte, f Frame) ([]byte, error) {
	qs := qstatePool.Get().(*qstate)
	defer qstatePool.Put(qs)
	if err := decodeRequestInto(f, &qs.req); err != nil {
		s.met.errors.Add(1)
		return buf, err
	}
	req := &qs.req
	if req.Verb == VerbStats || req.Verb == VerbFault {
		return s.serveAdmin(buf, req)
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
			return buf, errBusy
		case <-s.done:
			releaseTrace(tr)
			return buf, errShuttingDown
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
	out := append(buf, byte(verb))
	var enc resultEncoder
	if verb == VerbPoints {
		enc = newResultEncoder(out, s.st.Grid().Dims())
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
			return out, fmt.Errorf("deadline exceeded: %w", err)
		}
		s.met.errors.Add(1)
		return out, err
	}
	res.Info.Elapsed = s.cfg.clock().Sub(start)
	s.met.queries[verbIndex(req.Verb)].Add(1)
	if res.Info.Degraded {
		s.met.degraded.Add(1)
	}
	s.met.latency.Record(res.Info.Elapsed)
	s.met.fetches.Record(time.Duration(res.Info.Buckets))

	// Row payloads were encoded during the scan; all that is left is the
	// count back-patch and the info trailer. On failure the encoders return
	// no buffer, so out keeps the one to write the error into.
	encStart := s.traceNow(tr)
	var sealed []byte
	if verb == VerbPoints {
		sealed, err = enc.finish(res.Info)
	} else {
		sealed, err = AppendResult(out, verb, res)
	}
	s.traceSince(tr, stageEncode, encStart)
	s.finishTrace(tr, req.Verb, res.Info.Elapsed, res.Info, err)
	if err != nil {
		s.met.errors.Add(1)
		return out, err
	}
	return sealed, nil
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
	dims := s.st.Grid().Dims()
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
// pre-write data through a stale cache entry (a concurrent miss that loaded
// the old pages is fenced by the cache's invalidation stamp). The store
// serializes mutations internally; concurrent INSERTs from many connections
// are safe.
func (s *Server) writeOp(ctx context.Context, mutate func(*store.Store, context.Context, geom.Point) (store.Mutation, error), key geom.Point) (Result, error) {
	if dims := s.st.Grid().Dims(); len(key) != dims {
		return Result{}, fmt.Errorf("key is %d-D, grid is %d-D", len(key), dims)
	}
	if !s.st.Writable() {
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
// long one), or name a merged-away bucket whose placement a checkpoint has
// since dropped (a failed fetch). Every query therefore reads the store's
// grid generation with its translation and compares it after the fetch,
// translating and fetching again when it moved — whether the fetch answered
// or failed.

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
		// Zeroed, not just resized: a degraded fetch leaves missing buckets
		// untouched, and an arena left by the previous query through the same
		// pooled scratch would otherwise be scanned as live data.
		qs.recs = slices.Grow(qs.recs[:0], len(qs.ids))[:len(qs.ids)]
		clear(qs.recs)
		info, err := s.fetchBuckets(ctx, tr, qs)
		if s.st.GridGen() == gen || (err != nil && ctx.Err() != nil) {
			return info, err
		}
	}
}

func (s *Server) pointQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, key geom.Point) (Result, error) {
	info, err := s.fetchTranslated(ctx, qs, tr, func() error {
		id, ok := s.st.Grid().BucketAt(key)
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
		if slices.Equal(row, key) {
			enc.appendRow(row)
		}
	}
	res.Count = enc.count()
	return res, nil
}

// rangeQuery answers a range and a range count. A count reads only the
// buckets on the border of the query's cell box: the inside ones lie wholly
// in the box, so the directory's record counts stand for them
// (gridfile.CountSplitAppend, DESIGN S53). They are read under the grid
// read lock with the translation, and a mutation rewrites a bucket's pages,
// swaps its placement and invalidates it under the write lock, so the total
// holds every write acknowledged before the translation; a split between
// translation and fetch sends the whole count round again.
func (s *Server) rangeQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, q geom.Rect, countOnly bool) (Result, error) {
	var insideBuckets, insideRecords int
	info, err := s.fetchTranslated(ctx, qs, tr, func() error {
		if countOnly {
			qs.ids, insideBuckets, insideRecords = s.st.Grid().CountSplitAppend(q, qs.ids[:0])
		} else {
			qs.ids = s.st.Grid().BucketsInRangeAppend(q, qs.ids[:0])
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.Info = info
	if countOnly {
		enc = nil
		tr.noteInside(insideBuckets)
	}
	res.Count, err = scanBuckets(qs.recs, q, enc, &qs.covers)
	res.Count += insideRecords
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
// pays the per-row test — on the dimensions its box crosses, so a
// partial-match line tests one dimension of each row, not every one. A grid
// file's range query mostly meets the first kind. Zero Flats (what a
// degraded fetch leaves) scan as empty.
//
// The buckets are decided first, into the scratch *covers, so that the
// answer buffer is reserved once for the rows of every bucket the query does
// not miss — the most the scan can emit — and not for buckets it skips
// (DESIGN S45).
func scanBuckets(recs []geom.Flat, q geom.Rect, enc *resultEncoder, covers *[]bucketCover) (int, error) {
	cs := slices.Grow((*covers)[:0], len(recs))[:len(recs)]
	*covers = cs
	rows := 0
	for i, rec := range recs {
		if cs[i].how, cs[i].cross = rec.Cover(q); cs[i].how != geom.Outside {
			rows += rec.Len()
		}
	}
	if enc != nil {
		enc.reserve(rows)
	}
	count := 0
	var testBuf [4]rowTest // room for the dimensions of the paper's datasets
	for i, rec := range recs {
		n := rec.Len()
		switch cs[i].how {
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
			d := rec.Dims
			if d != len(q) {
				break // a row of another dimensionality is in no box of q's, as ContainsPoint says
			}
			tests := appendRowTests(testBuf[:0], q, cs[i].cross)
		nextRow:
			for off := 0; off < n*d; off += d {
				for _, t := range tests {
					// Written so that a NaN coordinate fails, as in ContainsPoint.
					if v := rec.Coords[off+t.dim]; !(t.lo <= v && v <= t.hi) {
						continue nextRow
					}
				}
				count++
				if enc != nil {
					if !enc.room(1) {
						return 0, ErrFrameTooBig
					}
					enc.appendRow(rec.Coords[off : off+d])
				}
			}
		}
	}
	return count, nil
}

// bucketCover is scanBuckets' decision for one bucket: how its box lies
// against the query and, when it straddles, the dimensions its rows are
// tested on (geom.Flat.Cover).
type bucketCover struct {
	how   geom.Cover
	cross uint64
}

// rowTest is one dimension of the per-row test: the row's coordinate dim
// must lie in [lo, hi].
type rowTest struct {
	dim    int
	lo, hi float64
}

// appendRowTests appends the tests a straddling bucket's rows must pass: q
// along each dimension in cross, every dimension when cross is
// geom.AllDims.
func appendRowTests(tests []rowTest, q geom.Rect, cross uint64) []rowTest {
	for d, iv := range q {
		if cross == geom.AllDims || cross>>d&1 == 1 { // a shift past 63 leaves 0
			tests = append(tests, rowTest{d, iv.Lo, iv.Hi})
		}
	}
	return tests
}

func (s *Server) partialQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, vals []float64) (Result, error) {
	q := qs.queryBox(len(vals))
	for d, v := range vals {
		if math.IsNaN(v) {
			q[d] = s.dom[d]
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
// against the page store so every probe is real declustered I/O. Each probe
// translates and fetches its whole box through fetchTranslated, as every
// other verb does, so a split between probes is that function's retry; a
// probe that follows another re-reads its buckets. Every row fetched is
// offered to a heap of the k nearest, and only those k are sorted, once,
// for the answer.
func (s *Server) knnQuery(ctx context.Context, qs *qstate, tr *Trace, enc *resultEncoder, key geom.Point, k int) (Result, error) {
	grid, dom := s.st.Grid(), s.dom
	if !dom.ContainsPoint(key) {
		return Result{}, fmt.Errorf("key %v outside the domain", key)
	}
	// Initial radius: one average cell extent, so the first probe touches
	// roughly the cell neighbourhood of the key.
	r := 0.0
	s.st.RLockGrid()
	for d := range dom {
		if ext := dom[d].Length() / float64(grid.CellsAlong(d)); ext > r {
			r = ext
		}
	}
	s.st.RUnlockGrid()
	if r <= 0 {
		r = 1
	}

	var info QueryInfo
	q := qs.queryBox(len(key))
	for {
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
		fi, err := s.fetchTranslated(ctx, qs, tr, func() error {
			qs.ids = grid.BucketsInRangeAppend(q, qs.ids[:0])
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		info.Buckets += fi.Buckets
		info.Pages += fi.Pages
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
		qs.near = qs.near[:0]
		for _, rec := range qs.recs {
			for off, d := 0, rec.Dims; off < rec.Len()*d; off += d {
				row := rec.Coords[off : off+d]
				qs.near.offer(k, row, euclid(row, key))
			}
		}
		// Done when the k-th distance is inside the probed radius (no
		// unfetched point can be closer) or the box covers the domain.
		if near := qs.near; covers || (len(near) == k && near[0].dist <= r) {
			slices.SortFunc(near, func(a, b knnCand) int { return cmp.Compare(a.dist, b.dist) })
			for _, c := range near {
				enc.appendRow(c.row)
			}
			return Result{Count: len(near), Info: info}, nil
		}
		r *= 2
	}
}

// knnCand is a kNN candidate: a row of a fetched arena and its distance to
// the key.
type knnCand struct {
	row  []float64
	dist float64
}

// knnHeap holds the k nearest candidates offered so far as a max-heap on
// distance: the farthest of them is at the root, so a row no nearer than it
// is turned away with one comparison.
type knnHeap []knnCand

// offer adds the candidate (row, dist) if fewer than k are held or it is
// nearer than the farthest held, which it then replaces.
func (h *knnHeap) offer(k int, row []float64, dist float64) {
	a := *h
	i := len(a)
	if i < k {
		a = append(a, knnCand{row, dist})
		for i > 0 { // sift up
			p := (i - 1) / 2
			if a[p].dist >= dist {
				break
			}
			a[i], a[p] = a[p], a[i]
			i = p
		}
		*h = a
		return
	}
	if dist >= a[0].dist {
		return
	}
	a[0] = knnCand{row, dist}
	for i = 0; ; { // sift down
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].dist > a[c].dist {
			c++
		}
		if a[c].dist <= dist {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

func euclid(a, b geom.Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
