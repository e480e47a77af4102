// Package experiments reproduces every table and figure of the paper's
// evaluation (and the ablations listed in DESIGN.md) as programmatic
// drivers. Each driver returns text tables in the style of the paper; the
// cmd/gridbench binary and the repository's bench_test.go both dispatch
// through Run.
//
// Experiment ids: fig2 fig3 fig4 tab1 thm1 thm2 fig5 fig6 tab2 tab3 fig7
// tab4 tab5 ablation-sfc ablation-mst ablation-weight.
package experiments

import (
	"fmt"
	"sort"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/stats"
	"pgridfile/internal/synth"
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
	// Disks lists the disk counts swept; default is the paper's 4..32.
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
type built struct {
	ds        *synth.Dataset
	file      *gridfile.File
	grid      core.Grid
	indexByID []int
}

// Lab memoizes datasets and grid files across the experiments of one run.
type Lab struct {
	opts   Options
	cache  map[string]*built
	nnMemo map[string][]int
}

// NewLab creates a lab with the given options.
func NewLab(opts Options) *Lab {
	return &Lab{
		opts:   opts.normalize(),
		cache:  map[string]*built{},
		nnMemo: map[string][]int{},
	}
}

// Options returns the lab's normalized options.
func (l *Lab) Options() Options { return l.opts }

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
	b := &built{ds: ds, file: f, grid: core.FromGridFile(f), indexByID: f.IndexByID()}
	l.cache[name] = b
	return b, nil
}

// Run dispatches an experiment by id.
func (l *Lab) Run(id string) ([]*stats.Table, error) {
	switch id {
	case "fig2":
		return l.Figure2()
	case "fig3":
		return l.Figure3()
	case "fig4":
		return l.Figure4()
	case "tab1":
		return l.Table1()
	case "thm1":
		return l.Theorem1()
	case "thm2":
		return l.Theorem2()
	case "hcam-scaling":
		return l.HCAMScaling()
	case "fig5":
		return l.Figure5()
	case "fig6":
		return l.Figure6()
	case "tab2":
		return l.Table2()
	case "tab3":
		return l.Table3()
	case "fig7":
		return l.Figure7()
	case "tab4":
		return l.Table4()
	case "tab5":
		return l.Table5()
	case "pm":
		return l.PartialMatch()
	case "thm1-kd":
		return l.TheoremKD()
	case "tab6":
		return l.Table6()
	case "trace":
		return l.Trace()
	case "rtree":
		return l.RTree()
	case "quadtree":
		return l.Quadtree()
	case "utilization":
		return l.Utilization()
	case "optimality":
		return l.Optimality()
	case "ablation-sfc":
		return l.AblationCurves()
	case "ablation-mst":
		return l.AblationMinimaxVsMST()
	case "ablation-weight":
		return l.AblationEdgeWeight()
	case "ablation-gdm":
		return l.AblationGDM()
	case "ablation-refine":
		return l.AblationRefine()
	case "ablation-seqio":
		return l.AblationSeqIO()
	case "ablation-split":
		return l.AblationSplit()
	case "dirio":
		return l.DirIO()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (see ListExperiments)", id)
	}
}

// ListExperiments returns the experiment ids in presentation order.
func ListExperiments() []string {
	return []string{
		"fig2", "fig3", "fig4", "tab1", "thm1", "thm1-kd", "thm2",
		"hcam-scaling", "fig5",
		"fig6", "tab2", "tab3", "fig7", "tab4", "tab5", "tab6", "pm", "trace",
		"rtree", "quadtree", "utilization", "optimality",
		"ablation-sfc", "ablation-mst", "ablation-weight", "ablation-gdm",
		"ablation-refine", "ablation-seqio", "ablation-split", "dirio",
	}
}

// fmtDisks renders a disks column header list in ascending order.
func fmtDisks(disks []int) []string {
	sorted := append([]int(nil), disks...)
	sort.Ints(sorted)
	out := make([]string, len(sorted))
	for i, m := range sorted {
		out[i] = fmt.Sprintf("%d", m)
	}
	return out
}

// queriesFor builds the standard square-range workload for a dataset.
func (l *Lab) queriesFor(dom geom.Rect, r float64) []geom.Rect {
	return squareQueries(dom, r, l.opts.Queries, l.opts.Seed+100)
}
