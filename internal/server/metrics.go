package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/stats"
	"pgridfile/internal/store"
)

// verbIndex maps request verbs to dense counter slots.
var verbNames = []string{"point", "range", "partial", "knn", "stats", "fault", "insert", "delete"}

func verbIndex(v Verb) int {
	switch v {
	case VerbPoint:
		return 0
	case VerbRange:
		return 1
	case VerbPartial:
		return 2
	case VerbKNN:
		return 3
	case VerbStats:
		return 4
	case VerbFault:
		return 5
	case VerbInsert:
		return 6
	case VerbDelete:
		return 7
	}
	return -1
}

// QuantileSummary reports a histogram's percentiles.
type QuantileSummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// quantiles lists the percentiles /metrics exposes, under their labels.
func (s QuantileSummary) quantiles() [4]quantile {
	return [4]quantile{{"0.5", s.P50}, {"0.9", s.P90}, {"0.95", s.P95}, {"0.99", s.P99}}
}

type quantile struct {
	q string
	v float64
}

// summarize reads a recorder in multiples of unit: time.Microsecond for a
// latency reported in µs, 1 for nanoseconds and for plain counts.
func summarize(r *stats.Recorder, unit time.Duration) QuantileSummary {
	s, u := r.Summary(), float64(unit)
	return QuantileSummary{
		Count: s.Count,
		P50:   float64(s.P50) / u,
		P90:   float64(s.P90) / u,
		P95:   float64(s.P95) / u,
		P99:   float64(s.P99) / u,
		Max:   float64(s.Max) / u,
	}
}

// Metrics aggregates the server's observability counters. All methods are
// safe for concurrent use.
type Metrics struct {
	start            time.Time
	queries          [8]atomic.Int64 // by verb
	errors           atomic.Int64    // protocol/decode/execution errors answered
	rejected         atomic.Int64    // admission-control rejections (never admitted)
	deadlineExceeded atomic.Int64    // admitted queries that expired mid-flight
	degraded         atomic.Int64    // queries answered partially (missed disks)
	pagesRead        atomic.Int64
	// What the store's span planner did for the batches pagesRead counts:
	// positioned reads issued, and unwanted pages they read through.
	spansRead    atomic.Int64
	gapPagesRead atomic.Int64
	// Replica serving counters: buckets rerouted to a surviving owner after
	// a failed read of their copy, and buckets read from primary vs secondary
	// copies — primary meaning the copy a lead was routed to, its first whole
	// one, and secondary a later owner a failover read (replicated layouts
	// only; an unreplicated server leaves all three at zero).
	replicaFailover       atomic.Int64
	replicaReadsPrimary   atomic.Int64
	replicaReadsSecondary atomic.Int64
	// Integrity-scrub counters (ScrubNow / the ScrubInterval loop): page
	// copies verified, copies that failed their checksum, and copies
	// rewritten from an intact replica.
	scrubPages    atomic.Int64
	scrubCorrupt  atomic.Int64
	scrubRepaired atomic.Int64
	traced        atomic.Int64              // queries that carried a stage trace
	writeBatches  atomic.Int64              // reply write syscalls on client connections
	writeFrames   atomic.Int64              // response frames carried by those writes
	diskFetches   []atomic.Int64            // bucket fetches per disk
	latency       stats.Recorder            // service time
	fetches       stats.Recorder            // distinct buckets fetched per data query (a count)
	stageLat      [numStages]stats.Recorder // per-stage time of traced queries

	// Disk batches by who read them: the query that submitted the batch,
	// finding it at the front of an idle disk, or the disk's worker.
	batchesByQuery  atomic.Int64
	batchesByWorker atomic.Int64
}

// noteRead records one successfully served disk batch: its wanted pages and
// what the store's span planner did to fetch them.
func (m *Metrics) noteRead(pages int, tm *store.Timing) {
	m.pagesRead.Add(int64(pages))
	m.spansRead.Add(int64(tm.Spans))
	m.gapPagesRead.Add(int64(tm.GapPages))
}

func newMetrics(disks int) *Metrics {
	return &Metrics{start: time.Now(), diskFetches: make([]atomic.Int64, disks)}
}

// Snapshot is the exported statistics view, served by the STATS verb as
// JSON and rendered by the HTTP endpoint. It also describes the layout
// (dims, disks, domain) so clients can generate workloads without
// out-of-band knowledge of the dataset.
type Snapshot struct {
	UptimeSeconds    float64          `json:"uptime_seconds"`
	Dims             int              `json:"dims"`
	Disks            int              `json:"disks"`
	Domain           [][2]float64     `json:"domain"`
	Queries          map[string]int64 `json:"queries"`
	QueriesTotal     int64            `json:"queries_total"`
	Errors           int64            `json:"errors"`
	Rejected         int64            `json:"rejected"`
	DeadlineExceeded int64            `json:"deadline_exceeded"`
	Degraded         int64            `json:"queries_degraded"`
	DiskRetries      int64            `json:"disk_retries"` // always 0; the frozen benchmark (bench/) reads it
	Replicas         int              `json:"replicas,omitempty"`
	ReplicaFailover  int64            `json:"replica_failover"`
	ReplicaPrimary   int64            `json:"replica_reads_primary"`
	ReplicaSecondary int64            `json:"replica_reads_secondary"`
	ScrubPages       int64            `json:"scrub_pages"`
	ScrubCorrupt     int64            `json:"scrub_corrupt"`
	ScrubRepaired    int64            `json:"scrub_repaired"`
	DiskBytes        int64            `json:"disk_bytes,omitempty"`
	WriteAmp         float64          `json:"write_amplification,omitempty"`
	FaultInjected    int64            `json:"fault_injected"`
	InFlight         int              `json:"in_flight"`
	DiskFetches      []int64          `json:"disk_bucket_fetches"`
	PagesRead        int64            `json:"pages_read"`     // wanted pages only
	SpansRead        int64            `json:"spans_read"`     // positioned reads (store.Timing.Spans)
	GapPagesRead     int64            `json:"gap_pages_read"` // unwanted pages read through
	MergedFetches    int64            `json:"merged_fetches"` // always 0; the frozen benchmark (bench/) reads it
	LatencyMicros    QuantileSummary  `json:"latency_micros"`
	FetchesPerQry    QuantileSummary  `json:"buckets_per_query"`
	WriteBatches     int64            `json:"write_batches"`
	WriteFrames      int64            `json:"write_frames"`
	Traced           int64            `json:"queries_traced,omitempty"`
	// Stages holds the per-stage histograms of traced queries, in
	// nanoseconds: the stages are sub-microsecond on a warm cache.
	Stages map[string]QuantileSummary `json:"stage_nanos,omitempty"`
	Cache  *cache.Stats               `json:"cache,omitempty"`
	// Writes reports the store's mutation counters.
	Writes *store.WriteCounters `json:"writes,omitempty"`

	// Disk batches by who read them (served_by on /metrics): their own
	// query, or the disk's worker.
	BatchesByQuery  int64 `json:"disk_batches_query"`
	BatchesByWorker int64 `json:"disk_batches_worker"`
}

func (m *Metrics) snapshot(inflight int) Snapshot {
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Queries:          make(map[string]int64, len(verbNames)),
		Errors:           m.errors.Load(),
		Rejected:         m.rejected.Load(),
		DeadlineExceeded: m.deadlineExceeded.Load(),
		Degraded:         m.degraded.Load(),
		ReplicaFailover:  m.replicaFailover.Load(),
		ReplicaPrimary:   m.replicaReadsPrimary.Load(),
		ReplicaSecondary: m.replicaReadsSecondary.Load(),
		ScrubPages:       m.scrubPages.Load(),
		ScrubCorrupt:     m.scrubCorrupt.Load(),
		ScrubRepaired:    m.scrubRepaired.Load(),
		InFlight:         inflight,
		PagesRead:        m.pagesRead.Load(),
		SpansRead:        m.spansRead.Load(),
		GapPagesRead:     m.gapPagesRead.Load(),
		BatchesByQuery:   m.batchesByQuery.Load(),
		BatchesByWorker:  m.batchesByWorker.Load(),
		LatencyMicros:    summarize(&m.latency, time.Microsecond),
		FetchesPerQry:    summarize(&m.fetches, 1),
		WriteBatches:     m.writeBatches.Load(),
		WriteFrames:      m.writeFrames.Load(),
		Traced:           m.traced.Load(),
	}
	if s.Traced > 0 {
		s.Stages = make(map[string]QuantileSummary, numStages)
		for i := range m.stageLat {
			s.Stages[stageNames[i]] = summarize(&m.stageLat[i], time.Nanosecond)
		}
	}
	for i, name := range verbNames {
		n := m.queries[i].Load()
		s.Queries[name] = n
		s.QueriesTotal += n
	}
	s.DiskFetches = make([]int64, len(m.diskFetches))
	for i := range m.diskFetches {
		s.DiskFetches[i] = m.diskFetches[i].Load()
	}
	return s
}

// writePrometheus renders the snapshot in the Prometheus text exposition
// format for the optional HTTP /metrics endpoint.
func (s Snapshot) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, name := range verbNames {
		fmt.Fprintf(w, "gridserver_queries_total{verb=%q} %d\n", name, s.Queries[name])
	}
	fmt.Fprintf(w, "gridserver_errors_total %d\n", s.Errors)
	fmt.Fprintf(w, "gridserver_rejected_total %d\n", s.Rejected)
	fmt.Fprintf(w, "gridserver_deadline_exceeded_total %d\n", s.DeadlineExceeded)
	fmt.Fprintf(w, "gridserver_queries_degraded_total %d\n", s.Degraded)
	fmt.Fprintf(w, "gridserver_replicas %d\n", s.Replicas)
	fmt.Fprintf(w, "gridserver_replica_failover_total %d\n", s.ReplicaFailover)
	fmt.Fprintf(w, "gridserver_replica_reads_total{copy=\"primary\"} %d\n", s.ReplicaPrimary)
	fmt.Fprintf(w, "gridserver_replica_reads_total{copy=\"secondary\"} %d\n", s.ReplicaSecondary)
	fmt.Fprintf(w, "gridserver_scrub_pages_total %d\n", s.ScrubPages)
	fmt.Fprintf(w, "gridserver_scrub_corrupt_total %d\n", s.ScrubCorrupt)
	fmt.Fprintf(w, "gridserver_scrub_repaired_total %d\n", s.ScrubRepaired)
	fmt.Fprintf(w, "gridserver_disk_bytes %d\n", s.DiskBytes)
	fmt.Fprintf(w, "gridserver_write_amplification %g\n", s.WriteAmp)
	fmt.Fprintf(w, "gridserver_fault_injected_total %d\n", s.FaultInjected)
	fmt.Fprintf(w, "gridserver_in_flight %d\n", s.InFlight)
	fmt.Fprintf(w, "gridserver_pages_read_total %d\n", s.PagesRead)
	fmt.Fprintf(w, "gridserver_spans_read_total %d\n", s.SpansRead)
	fmt.Fprintf(w, "gridserver_gap_pages_read_total %d\n", s.GapPagesRead)
	fmt.Fprintf(w, "gridserver_disk_batches_total{served_by=\"query\"} %d\n", s.BatchesByQuery)
	fmt.Fprintf(w, "gridserver_disk_batches_total{served_by=\"worker\"} %d\n", s.BatchesByWorker)
	for d, n := range s.DiskFetches {
		fmt.Fprintf(w, "gridserver_disk_bucket_fetches_total{disk=\"%d\"} %d\n", d, n)
	}
	for _, q := range s.LatencyMicros.quantiles() {
		fmt.Fprintf(w, "gridserver_latency_micros{quantile=%q} %g\n", q.q, q.v)
	}
	fmt.Fprintf(w, "gridserver_latency_observations_total %d\n", s.LatencyMicros.Count)
	fmt.Fprintf(w, "gridserver_write_batches_total %d\n", s.WriteBatches)
	fmt.Fprintf(w, "gridserver_write_frames_total %d\n", s.WriteFrames)
	fmt.Fprintf(w, "gridserver_queries_traced_total %d\n", s.Traced)
	if s.Stages != nil {
		// Iterate stageNames, not the map, for a deterministic exposition.
		for _, name := range stageNames {
			q, ok := s.Stages[name]
			if !ok {
				continue
			}
			for _, pq := range q.quantiles() {
				fmt.Fprintf(w, "gridserver_stage_nanos{stage=%q,quantile=%q} %g\n", name, pq.q, pq.v)
			}
			fmt.Fprintf(w, "gridserver_stage_observations_total{stage=%q} %d\n", name, q.Count)
		}
	}
	c := s.Cache
	fmt.Fprintf(w, "gridserver_cache_hits_total %d\n", c.Hits)
	fmt.Fprintf(w, "gridserver_cache_misses_total %d\n", c.Misses)
	fmt.Fprintf(w, "gridserver_cache_evictions_total %d\n", c.Evictions)
	fmt.Fprintf(w, "gridserver_cache_invalidations_total %d\n", c.Invalidations)
	fmt.Fprintf(w, "gridserver_cache_resident_bytes %d\n", c.Bytes)
	fmt.Fprintf(w, "gridserver_cache_resident_entries %d\n", c.Entries)
	fmt.Fprintf(w, "gridserver_cache_max_bytes %d\n", c.MaxBytes)
	wc := s.Writes
	fmt.Fprintf(w, "gridserver_inserts_total %d\n", wc.Inserts)
	fmt.Fprintf(w, "gridserver_deletes_total %d\n", wc.Deletes)
	fmt.Fprintf(w, "gridserver_journal_appends_total %d\n", wc.JournalAppends)
	fmt.Fprintf(w, "gridserver_journal_replays_total %d\n", wc.JournalReplays)
	fmt.Fprintf(w, "gridserver_bucket_splits_total %d\n", wc.BucketSplits)
	fmt.Fprintf(w, "gridserver_uptime_seconds %g\n", s.UptimeSeconds)
}
