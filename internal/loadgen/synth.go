package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"pgridfile/internal/geom"
)

// OpKind enumerates the query types the harness can offer.
type OpKind uint8

const (
	OpPoint OpKind = iota
	OpRange
	OpRangeCount
	OpPartialMatch
	OpKNN
)

func (k OpKind) String() string {
	switch k {
	case OpPoint:
		return "point"
	case OpRange:
		return "range"
	case OpRangeCount:
		return "range-count"
	case OpPartialMatch:
		return "partial-match"
	case OpKNN:
		return "knn"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one synthesized query. Send maps it onto the server's client; the
// repo benchmark (bench/) maps it onto its own checked calls.
type Op struct {
	Kind OpKind
	// Key is the point / kNN centre / partial-match pattern (NaN marks an
	// unspecified attribute). Nil for range ops.
	Key []float64
	// Rect is the query rectangle for range and range-count ops.
	Rect geom.Rect
	// K is the neighbour count for kNN ops.
	K int
}

// Mix weighs the op kinds in a synthesized workload. Weights are relative;
// they need not sum to anything in particular. The zero Mix means
// DefaultMix.
type Mix struct {
	Point        int
	Range        int
	RangeCount   int
	PartialMatch int
	KNN          int
}

// DefaultMix is a read-mostly analytical mix: dominated by range scans with
// a tail of point lookups and the exotic query types.
var DefaultMix = Mix{Point: 20, Range: 30, RangeCount: 30, PartialMatch: 10, KNN: 10}

func (m Mix) total() int {
	return m.Point + m.Range + m.RangeCount + m.PartialMatch + m.KNN
}

// Skew adds a hot spot to the key distribution: a Hot fraction of ops target
// a sub-region covering hotFrac of each dimension's extent, centred at the
// domain midpoint. The zero Skew is uniform.
type Skew struct {
	// Hot is the fraction of ops (0..1) whose centre falls in the hot region.
	Hot float64
}

// hotFrac is the hot region's extent per dimension as a fraction of the
// domain, and unspecified the number of unspecified attributes in a
// partial-match op. Constants: nothing ever set another value.
const (
	hotFrac     = 0.1
	unspecified = 1
)

// SynthOptions configures Synthesize.
type SynthOptions struct {
	Mix  Mix
	Skew Skew
	// RangeRatio is the volume fraction of the domain each range query
	// covers, as in the paper's square-range workload (default 0.01).
	RangeRatio float64
	// K is the neighbour count for kNN ops (default 8).
	K int
}

func (o SynthOptions) withDefaults() SynthOptions {
	if o.Mix.total() <= 0 {
		o.Mix = DefaultMix
	}
	if o.RangeRatio <= 0 {
		o.RangeRatio = 0.01
	}
	if o.K <= 0 {
		o.K = 8
	}
	return o
}

// hotRegion returns the skewed sub-domain: hotFrac of each extent, centred
// at the domain midpoint.
func hotRegion(dom geom.Rect) geom.Rect {
	hot := make(geom.Rect, dom.Dim())
	for k := range dom {
		mid := (dom[k].Lo + dom[k].Hi) / 2
		half := hotFrac * dom[k].Length() / 2
		hot[k] = geom.Interval{Lo: mid - half, Hi: mid + half}
	}
	return hot
}

// Synthesize generates n ops over the domain, fully determined by
// (dom, opts, n, seed): the same inputs yield the identical op sequence, so
// an open-loop run replays exactly.
func Synthesize(dom geom.Rect, opts SynthOptions, n int, seed int64) []Op {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	d := dom.Dim()
	total := opts.Mix.total()
	hot := dom
	if opts.Skew.Hot > 0 {
		hot = hotRegion(dom)
	}
	// Centres are drawn from the hot region with probability Skew.Hot, the
	// full domain otherwise; range extents are always sized off the full
	// domain so a hot range query still covers RangeRatio of total volume.
	centre := func(buf []float64) []float64 {
		src := dom
		if opts.Skew.Hot > 0 && rng.Float64() < opts.Skew.Hot {
			src = hot
		}
		for k := range src {
			buf[k] = src[k].Lo + rng.Float64()*src[k].Length()
		}
		return buf
	}
	side := math.Pow(opts.RangeRatio, 1/float64(d))

	ops := make([]Op, n)
	for i := range ops {
		w := rng.Intn(total)
		var op Op
		switch {
		case w < opts.Mix.Point:
			op = Op{Kind: OpPoint, Key: centre(make([]float64, d))}
		case w < opts.Mix.Point+opts.Mix.Range+opts.Mix.RangeCount:
			kind := OpRange
			if w >= opts.Mix.Point+opts.Mix.Range {
				kind = OpRangeCount
			}
			c := centre(make([]float64, d))
			q := make(geom.Rect, d)
			for k := range dom {
				half := side * dom[k].Length() / 2
				q[k] = geom.Interval{
					Lo: math.Max(c[k]-half, dom[k].Lo),
					Hi: math.Min(c[k]+half, dom[k].Hi),
				}
			}
			op = Op{Kind: kind, Rect: q}
		case w < opts.Mix.Point+opts.Mix.Range+opts.Mix.RangeCount+opts.Mix.PartialMatch:
			key := centre(make([]float64, d))
			for _, k := range rng.Perm(d)[:min(unspecified, d)] {
				key[k] = math.NaN()
			}
			op = Op{Kind: OpPartialMatch, Key: key}
		default:
			op = Op{Kind: OpKNN, Key: centre(make([]float64, d)), K: opts.K}
		}
		ops[i] = op
	}
	return ops
}
