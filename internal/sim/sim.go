// Package sim implements the paper's declustering simulator (Section 2.2):
// it replays range-query workloads against a declustered grid file and
// reports the paper's metrics. The simulator's assumptions follow the paper:
// raw disk I/O (no caching), no temporal locality, and identical bucket read
// time on every disk — so the response time of a query is simply the largest
// number of buckets any one disk must fetch.
package sim

import (
	"fmt"
	"sort"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// Result aggregates a workload replay.
type Result struct {
	// Queries is the number of queries replayed.
	Queries int
	// MeanResponseTime is the average over queries of max_i N_i(q), the
	// paper's primary metric (in bucket fetches).
	MeanResponseTime float64
	// MeanOptimal is the average of N(q)/M: the paper's "optimal response
	// time" reference curve (not necessarily achievable).
	MeanOptimal float64
	// MeanBuckets is the average number of distinct buckets per query.
	MeanBuckets float64
	// MaxResponseTime is the worst single-query response time observed.
	MaxResponseTime int
	// TotalBuckets is the total number of bucket fetches.
	TotalBuckets int
	// perQuery records each query's response time for the distribution
	// accessors; kept unexported to keep Result comparable by its summary
	// fields in tests.
	perQuery []int
}

// Percentile returns the p-th percentile (0 < p <= 100) of the per-query
// response-time distribution, using nearest-rank. Mean response time hides
// tail behaviour — a declustering can look fine on average while a few
// queries hammer one disk — so experiments that care about worst-case
// latency should report P95/P99 too.
func (r Result) Percentile(p float64) int {
	if len(r.perQuery) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]int(nil), r.perQuery...)
	sort.Ints(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Source is anything that can answer "which buckets must a range query
// fetch" — a grid file, a Cartesian product file wrapper, or an R-tree.
// The returned ids must be translatable by the indexByID table passed to
// ReplaySource.
type Source interface {
	BucketsInRange(q geom.Rect) []int32
}

// Replay runs the workload against the file under the given allocation and
// returns the aggregate metrics. indexByID translates stable bucket ids into
// the dense indices the allocation uses (see gridfile.File.IndexByID).
func Replay(f *gridfile.File, alloc core.Allocation, indexByID []int, queries []geom.Rect) (Result, error) {
	return ReplaySource(f, alloc, indexByID, queries)
}

// ReplaySource is Replay generalized over any Source.
func ReplaySource(src Source, alloc core.Allocation, indexByID []int, queries []geom.Rect) (Result, error) {
	if len(queries) == 0 {
		return Result{}, fmt.Errorf("sim: empty workload")
	}
	perDisk := make([]int, alloc.Disks)
	var res Result
	res.Queries = len(queries)
	for _, q := range queries {
		ids := src.BucketsInRange(q)
		for i := range perDisk {
			perDisk[i] = 0
		}
		for _, id := range ids {
			dense := indexByID[id]
			if dense < 0 || dense >= len(alloc.Assign) {
				return Result{}, fmt.Errorf("sim: bucket id %d has no allocation", id)
			}
			perDisk[alloc.Assign[dense]]++
		}
		rt := 0
		for _, n := range perDisk {
			if n > rt {
				rt = n
			}
		}
		res.MeanResponseTime += float64(rt)
		res.MeanOptimal += float64(len(ids)) / float64(alloc.Disks)
		res.MeanBuckets += float64(len(ids))
		res.TotalBuckets += len(ids)
		res.perQuery = append(res.perQuery, rt)
		if rt > res.MaxResponseTime {
			res.MaxResponseTime = rt
		}
	}
	n := float64(len(queries))
	res.MeanResponseTime /= n
	res.MeanOptimal /= n
	res.MeanBuckets /= n
	return res, nil
}

// DiskLayout records where each bucket (by dense index) sits in the page
// file of the disk it is assigned to: Page[i] is bucket i's first page,
// Pages[i] how many consecutive pages it occupies.
type DiskLayout struct {
	Page  []int64
	Pages []int
}

// LayoutInOrder models a layout writer that visits buckets in the given
// order (a permutation of the dense indices) and appends each to the end of
// its assigned disk's file; pages[i] is bucket i's page count. The identity
// order is the bucket-id layout, store.LayoutOrder the one the page store
// writes.
func LayoutInOrder(alloc core.Allocation, order []int, pages []int) DiskLayout {
	lay := DiskLayout{Page: make([]int64, len(order)), Pages: pages}
	next := make([]int64, alloc.Disks)
	for _, i := range order {
		d := alloc.Assign[i]
		lay.Page[i] = next[d]
		next[d] += int64(pages[i])
	}
	return lay
}

// QuerySpans is one query's cost in positioned reads.
type QuerySpans struct {
	// Busiest is the largest number of spans any one disk serves: the
	// span-based response time, the analogue of the paper's max_i N_i(q) for
	// a device that charges per positioned read rather than per bucket.
	Busiest int
	// Total is the number of spans over all disks.
	Total int
	// GapPages is the number of unwanted pages the spans read through.
	GapPages int
}

// ResponseSpans cuts the buckets a query fetches (dense indices) into spans
// the way the page store's read planner does: on each disk, in page order, a
// span continues while the next wanted bucket starts at most readThrough
// pages past the end of the previous one. readThrough 0 merges only exactly
// adjacent buckets. (The store also caps a span at 256 pages, which no query
// near the paper's sizes reaches; the model leaves it out.)
func ResponseSpans(buckets []int, alloc core.Allocation, lay DiskLayout, readThrough int) QuerySpans {
	sorted := append([]int(nil), buckets...)
	sort.Slice(sorted, func(a, b int) bool {
		i, j := sorted[a], sorted[b]
		if alloc.Assign[i] != alloc.Assign[j] {
			return alloc.Assign[i] < alloc.Assign[j]
		}
		return lay.Page[i] < lay.Page[j]
	})
	var qs QuerySpans
	onDisk, disk, end := 0, -1, int64(0)
	for _, i := range sorted {
		gap := lay.Page[i] - end
		switch {
		case alloc.Assign[i] != disk:
			disk, onDisk = alloc.Assign[i], 1
			qs.Total++
		case gap > int64(readThrough):
			onDisk++
			qs.Total++
		default:
			qs.GapPages += int(gap)
		}
		qs.Busiest = max(qs.Busiest, onDisk)
		end = lay.Page[i] + int64(lay.Pages[i])
	}
	return qs
}

// SpanResult aggregates ResponseSpans over a workload.
type SpanResult struct {
	Queries int
	// MeanResponseSpans is the average over queries of the spans on the
	// busiest disk — to a device that charges per positioned read what
	// Result.MeanResponseTime is to the paper's per-bucket model.
	MeanResponseSpans float64
	// MeanSpans and MeanGapPages average the per-query totals.
	MeanSpans    float64
	MeanGapPages float64
}

// ReplaySpans replays the workload like ReplaySource, but costs each query
// in spans under the given disk layout and read-through bound.
func ReplaySpans(src Source, alloc core.Allocation, indexByID []int, queries []geom.Rect,
	lay DiskLayout, readThrough int) (SpanResult, error) {
	if len(queries) == 0 {
		return SpanResult{}, fmt.Errorf("sim: empty workload")
	}
	res := SpanResult{Queries: len(queries)}
	var dense []int
	for _, q := range queries {
		dense = dense[:0]
		for _, id := range src.BucketsInRange(q) {
			i := indexByID[id]
			if i < 0 || i >= len(alloc.Assign) {
				return SpanResult{}, fmt.Errorf("sim: bucket id %d has no allocation", id)
			}
			dense = append(dense, i)
		}
		qs := ResponseSpans(dense, alloc, lay, readThrough)
		res.MeanResponseSpans += float64(qs.Busiest)
		res.MeanSpans += float64(qs.Total)
		res.MeanGapPages += float64(qs.GapPages)
	}
	n := float64(len(queries))
	res.MeanResponseSpans /= n
	res.MeanSpans /= n
	res.MeanGapPages /= n
	return res, nil
}

// DataBalanceDegree is the paper's secondary metric: B_max × M / B_sum,
// where B(i) is the number of buckets on disk i. Its minimum (perfect
// balance) is 1.0; larger values mean more skew.
func DataBalanceDegree(alloc core.Allocation) float64 {
	loads := alloc.DiskLoads()
	sum, max := 0, 0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(alloc.Disks) / float64(sum)
}

// NearestCompanions returns, for every bucket, the index of its closest
// companion: the bucket with the highest edge weight (ties broken by lower
// index), or -1 for a single-bucket grid. Cost is O(N²) weight evaluations;
// the result is allocation-independent, so Tables 2 and 3 compute it once
// per dataset and reuse it across disk counts and algorithms. It runs on
// core's pairwise-weight engine.
func NearestCompanions(g core.Grid, w core.Weight) []int {
	return core.NewPairEngine(g, w).NearestCompanions()
}

// CountSameDisk counts buckets co-located with their nearest companion.
func CountSameDisk(nn []int, alloc core.Allocation) int {
	count := 0
	for i, j := range nn {
		if j >= 0 && alloc.Assign[i] == alloc.Assign[j] {
			count++
		}
	}
	return count
}

// ClosestPairsSameDisk counts the buckets whose closest companion — the
// bucket with the highest edge weight, ties broken by lower index — shares
// their disk (Tables 2 and 3). Cost is O(N²) weight evaluations; use
// NearestCompanions + CountSameDisk to amortize over many allocations.
func ClosestPairsSameDisk(g core.Grid, alloc core.Allocation, w core.Weight) int {
	return CountSameDisk(NearestCompanions(g, w), alloc)
}

// Speedup returns base/rt: how much faster a configuration answers the
// workload than the reference configuration (the paper normalizes to the
// 4-disk response time in Figure 7).
func Speedup(base, rt float64) float64 {
	if rt == 0 {
		return 0
	}
	return base / rt
}
