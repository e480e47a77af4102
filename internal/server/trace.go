package server

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The observability layer (DESIGN S23): a per-query stage trace threaded
// through the whole hot path. Stage indices name where a traced query's
// nanoseconds went; stageNames is their order in STATS, /metrics and the
// slow-query log.
//
// The stages partition the path a data query takes:
//
//	admission   waiting for an admission-control slot
//	translate   grid-directory translation (BucketAt / BucketsInRange)
//	cache       bucket-cache acquire
//	fetch_wait  batches queued behind other reads of their disk
//	pread       positioned disk reads, including injected stalls
//	decode      page validation and record decoding
//	encode      result encoding to the wire frame
//
// Disk-side stages (fetch_wait, pread, decode) sum over the disks a
// query touched, which run in parallel — their sum can legitimately exceed
// the query's elapsed wall clock.
const (
	stageAdmission = iota
	stageTranslate
	stageCache
	stageFetchWait
	stagePread
	stageDecode
	stageEncode
	numStages
)

var stageNames = [numStages]string{
	stageAdmission: "admission",
	stageTranslate: "translate",
	stageCache:     "cache",
	stageFetchWait: "fetch_wait",
	stagePread:     "pread",
	stageDecode:    "decode",
	stageEncode:    "encode",
}

// Trace accumulates one query's per-stage durations. Stage cells are atomic
// because disk workers record their share (fetch_wait, pread, decode)
// concurrently with the query goroutine, which records the same stages for
// the batches it reads itself; the cache-outcome counters are
// touched by the query goroutine only. fetchBuckets gathers every
// submitted batch before returning, so all disk-side writes happen before
// the trace is read and released.
//
// Traces are pooled: a query that isn't sampled carries a nil *Trace, and
// every recording helper is nil-safe, so the disabled path costs one nil
// check and allocates nothing.
type Trace struct {
	stages [numStages]atomic.Int64 // nanoseconds per stage

	// Cache outcome of the query's bucket set.
	hits  int32 // served from the bucket cache
	leads int32 // loaded by this query via a disk batch

	inside int32 // a count's buckets decided from the directory, not read
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// acquireTrace returns a pooled Trace when this query is sampled, nil
// otherwise. TraceSample n traces every n-th data query; 0 disables.
func (s *Server) acquireTrace() *Trace {
	n := s.cfg.TraceSample
	if n <= 0 {
		return nil
	}
	if n > 1 && s.traceSeq.Add(1)%uint64(n) != 0 {
		return nil
	}
	return tracePool.Get().(*Trace)
}

// releaseTrace resets t and returns it to the pool; nil-safe.
func releaseTrace(t *Trace) {
	if t == nil {
		return
	}
	for i := range t.stages {
		t.stages[i].Store(0)
	}
	t.hits, t.leads, t.inside = 0, 0, 0
	tracePool.Put(t)
}

// traceNow reads the server clock only when a trace is attached, so
// untraced queries skip the call entirely. Pairs with traceSince. Going
// through cfg.clock keeps every stage measurement on the same (injectable)
// time source as the end-to-end latency.
func (s *Server) traceNow(t *Trace) time.Time {
	if t == nil {
		return time.Time{}
	}
	return s.cfg.clock()
}

// add records d on a stage; nil-safe, negative durations are dropped.
func (t *Trace) add(stage int, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.stages[stage].Add(int64(d))
}

// traceSince records the time since a traceNow mark; nil-safe on both ends.
func (s *Server) traceSince(t *Trace, stage int, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.stages[stage].Add(int64(s.cfg.clock().Sub(start)))
}

// noteCache accumulates the cache outcome of one fetchBuckets pass (k-NN
// runs several per query).
func (t *Trace) noteCache(hits, leads int) {
	if t == nil {
		return
	}
	t.hits += int32(hits)
	t.leads += int32(leads)
}

// noteInside records the buckets a count took from the directory; nil-safe.
func (t *Trace) noteInside(buckets int) {
	if t == nil {
		return
	}
	t.inside += int32(buckets)
}

// verbName names a verb for labels and the slow-query log.
func verbName(v Verb) string {
	if i := verbIndex(v); i >= 0 {
		return verbNames[i]
	}
	return fmt.Sprintf("0x%02x", uint8(v))
}

// finishTrace folds a completed query's trace into the per-stage histograms,
// emits the slow-query log line when the query qualifies, and returns the
// trace to the pool. Must be called exactly once per acquired trace, after
// every disk batch has been gathered.
func (s *Server) finishTrace(t *Trace, verb Verb, elapsed time.Duration, info QueryInfo, qerr error) {
	if t == nil {
		return
	}
	s.met.traced.Add(1)
	for i := range t.stages {
		s.met.stageLat[i].Record(time.Duration(t.stages[i].Load()))
	}
	if s.cfg.TraceSlowLog && elapsed >= s.cfg.TraceSlow {
		var b strings.Builder
		fmt.Fprintf(&b, "gridserver trace verb=%s elapsed=%s", verbName(verb), elapsed)
		for i := range t.stages {
			fmt.Fprintf(&b, " %s=%s", stageNames[i], time.Duration(t.stages[i].Load()))
		}
		fmt.Fprintf(&b, " buckets=%d pages=%d hits=%d leads=%d inside=%d degraded=%v",
			info.Buckets, info.Pages, t.hits, t.leads, t.inside, info.Degraded)
		if qerr != nil {
			fmt.Fprintf(&b, " err=%q", qerr.Error())
		}
		b.WriteByte('\n')
		s.traceMu.Lock()
		io.WriteString(s.cfg.TraceLog, b.String())
		s.traceMu.Unlock()
	}
	releaseTrace(t)
}
