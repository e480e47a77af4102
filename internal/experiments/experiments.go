// Package experiments reproduces every table and figure of the paper's
// evaluation (and the ablations listed in DESIGN.md) as programmatic
// drivers. Each driver returns text tables in the style of the paper; the
// cmd/gridbench binary and the repository's bench_test.go both dispatch
// through Run. `gridbench -list` prints the experiment ids.
package experiments

import (
	"fmt"
	"sort"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Seed drives every generator and randomized heuristic.
	Seed int64
	// Queries is the number of random range queries per workload
	// (the paper uses 1000).
	Queries int
	// Scale multiplies dataset sizes; 1.0 reproduces the paper's sizes.
	// The experiment shapes are stable down to about 0.1, which the
	// benchmarks use to keep iterations fast.
	Scale float64
	// Disks lists the disk counts swept, in any order (tables run
	// ascending); default is the paper's 4..32.
	Disks []int
}

func evens(lo, hi int) []int {
	var out []int
	for m := lo; m <= hi; m += 2 {
		out = append(out, m)
	}
	return out
}

func (o Options) normalize() Options {
	if o.Queries <= 0 {
		o.Queries = 1000
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if len(o.Disks) == 0 {
		o.Disks = evens(4, 32)
	}
	// One ascending copy: every driver's columns and fmtDisks' header both
	// follow it.
	o.Disks = append([]int(nil), o.Disks...)
	sort.Ints(o.Disks)
	return o
}

// scaled returns n scaled by the option factor, with a sane floor.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// built is a dataset loaded into a grid file plus its declustering view.
// src answers the range queries of a replay: the grid file, or (rtree) the
// tree whose leaves grid holds, in which case file is nil. nn is each
// bucket's nearest companion, filled by the first closest-pairs table.
type built struct {
	ds        *synth.Dataset
	file      *gridfile.File
	src       sim.Source
	grid      core.Grid
	indexByID []int
	nn        []int
}

// Lab memoizes datasets and grid files across the experiments of one run.
type Lab struct {
	opts  Options
	cache map[string]*built
}

// NewLab creates a lab with the given options.
func NewLab(opts Options) *Lab {
	return &Lab{opts: opts.normalize(), cache: map[string]*built{}}
}

// dataset builds (or returns the memoized) named dataset.
func (l *Lab) dataset(name string) (*built, error) {
	if b, ok := l.cache[name]; ok {
		return b, nil
	}
	var ds *synth.Dataset
	o := l.opts
	switch name {
	case "uniform.2d":
		ds = synth.Uniform2D(o.scaled(10000), o.Seed)
	case "hot.2d":
		ds = synth.Hotspot2D(o.scaled(10000), o.Seed+1)
	case "correl.2d":
		ds = synth.Correl2D(o.scaled(10000), o.Seed+2)
	case "DSMC.3d":
		ds = synth.DSMC3D(o.scaled(synth.DSMC3DSize), o.Seed+3)
	case "stock.3d":
		days := int(float64(synth.Stock3DDays) * o.Scale)
		if days < 20 {
			days = 20
		}
		ds = synth.Stock3D(synth.Stock3DStocks, days, o.Seed+4)
	case "DSMC.4d":
		snaps := int(59 * o.Scale)
		if snaps < 8 {
			snaps = 8
		}
		per := int(51000 * o.Scale)
		if per < 500 {
			per = 500
		}
		ds = synth.DSMC4D(snaps, per, o.Seed+5)
	case "MHD.4d":
		snaps := int(59 * o.Scale)
		if snaps < 8 {
			snaps = 8
		}
		per := int(51000 * o.Scale)
		if per < 500 {
			per = 500
		}
		ds = synth.MHD4D(snaps, per, o.Seed+6)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	f, err := ds.Build()
	if err != nil {
		return nil, err
	}
	b := &built{ds: ds, file: f, src: f, grid: core.FromGridFile(f), indexByID: f.IndexByID()}
	l.cache[name] = b
	return b, nil
}

// experimentTable is every experiment in presentation order: the id
// gridbench takes and the driver it runs. Run and ListExperiments read
// nothing else.
var experimentTable = []struct {
	id  string
	run func(*Lab) ([]*stats.Table, error)
}{
	{"fig2", (*Lab).Figure2},
	{"fig3", (*Lab).Figure3},
	{"fig4", (*Lab).Figure4},
	{"tab1", (*Lab).Table1},
	{"thm1", (*Lab).Theorem1},
	{"thm1-kd", (*Lab).TheoremKD},
	{"thm2", (*Lab).Theorem2},
	{"hcam-scaling", (*Lab).HCAMScaling},
	{"fig5", (*Lab).Figure5},
	{"fig6", (*Lab).Figure6},
	{"tab2", (*Lab).Table2},
	{"tab3", (*Lab).Table3},
	{"fig7", (*Lab).Figure7},
	{"tab4", (*Lab).Table4},
	{"tab5", (*Lab).Table5},
	{"tab6", (*Lab).Table6},
	{"pm", (*Lab).PartialMatch},
	{"trace", (*Lab).Trace},
	{"rtree", (*Lab).RTree},
	{"optimality", (*Lab).Optimality},
	{"ablation-sfc", (*Lab).AblationCurves},
	{"ablation-mst", (*Lab).AblationMinimaxVsMST},
	{"ablation-weight", (*Lab).AblationEdgeWeight},
	{"ablation-gdm", (*Lab).AblationGDM},
	{"ablation-refine", (*Lab).AblationRefine},
	{"ablation-seqio", (*Lab).AblationSeqIO},
	{"dirio", (*Lab).DirIO},
}

// Run dispatches an experiment by id.
func (l *Lab) Run(id string) ([]*stats.Table, error) {
	for _, e := range experimentTable {
		if e.id == id {
			return e.run(l)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (see ListExperiments)", id)
}

// ListExperiments returns the experiment ids in presentation order.
func ListExperiments() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// fmtDisks renders the disk sweep as column headers.
func fmtDisks(disks []int) []string {
	out := make([]string, len(disks))
	for i, m := range disks {
		out[i] = fmt.Sprintf("%d", m)
	}
	return out
}

// queriesFor builds the standard square-range workload for a dataset.
func (l *Lab) queriesFor(dom geom.Rect, r float64) []geom.Rect {
	return workload.SquareRange(dom, r, l.opts.Queries, l.opts.Seed+100)
}
