package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
)

// testOptions keeps unit-test runs fast while preserving the shapes.
func testOptions() Options {
	return Options{Seed: 7, Queries: 80, Scale: 0.08, Disks: []int{4, 16, 32}}
}

// goldenFile is what `gridbench -exp all` prints at testOptions, committed
// byte for byte; `make golden` regenerates it with that command line.
const goldenFile = "testdata/results_test_scale.txt"

// TestRunAllExperimentsProduceTables is the reproduction's gate: every
// experiment, run in listing order on one lab as gridbench does, prints
// exactly the committed bytes. A change that moves any digit of any table
// fails here and names the first line that differs; one that means to runs
// `make golden` and shows the diff.
func TestRunAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	lab := NewLab(testOptions())
	var got strings.Builder
	for _, id := range ListExperiments() {
		ts, err := lab.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(ts) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tb := range ts {
			out := tb.Render()
			// Title, header and rule are three lines; rows come after.
			if strings.Count(out, "\n") <= 3 {
				t.Errorf("%s: empty table %q", id, tb.Title)
			}
			got.WriteString(out + "\n") // gridbench Printlns each table
		}
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "end of output"
	}
	t.Fatalf("output differs from %s at line %d (`make golden` regenerates it)\n got: %s\nwant: %s",
		goldenFile, i+1, line(gotLines), line(wantLines))
}

func TestRunUnknownExperiment(t *testing.T) {
	lab := NewLab(testOptions())
	if _, err := lab.Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestOptionsNormalization(t *testing.T) {
	lab := NewLab(Options{})
	o := lab.opts
	if o.Queries != 1000 || o.Scale != 1.0 || len(o.Disks) != 15 {
		t.Errorf("normalized options = %+v", o)
	}
	if o.Disks[0] != 4 || o.Disks[len(o.Disks)-1] != 32 {
		t.Errorf("disk sweep = %v", o.Disks)
	}

	// Disks given out of order: the header and every driver's columns follow
	// one ascending sweep, so the table is the in-order one, and the caller's
	// slice is left as it was.
	given := []int{32, 4}
	opts := testOptions()
	opts.Disks = given
	unordered, err := NewLab(opts).Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	opts.Disks = []int{4, 32}
	ordered, err := NewLab(opts).Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unordered[0].Render(), ordered[0].Render(); got != want {
		t.Errorf("-disks 32,4 prints\n%s\nwant the -disks 4,32 table\n%s", got, want)
	}
	if given[0] != 32 || given[1] != 4 {
		t.Errorf("caller's Disks reordered: %v", given)
	}
}

func TestDatasetMemoization(t *testing.T) {
	lab := NewLab(testOptions())
	a, err := lab.dataset("hot.2d")
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.dataset("hot.2d")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dataset not memoized")
	}
	if _, err := lab.dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// parseSeries extracts the float series of the row whose first cell matches
// label from a rendered table.
func parseSeries(t *testing.T, tb *stats.Table, label string) []float64 {
	t.Helper()
	for _, line := range strings.Split(tb.Render(), "\n") {
		if !strings.HasPrefix(line, label+" ") && !strings.HasPrefix(line, label+"  ") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, label))
		fields := strings.Fields(rest)
		out := make([]float64, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("row %q: bad cell %q", label, f)
			}
			out = append(out, v)
		}
		return out
	}
	t.Fatalf("row %q not found in table %q", label, tb.Title)
	return nil
}

func TestFigure4Shapes(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables", len(tables))
	}
	// On every dataset: response times never fall below the optimal curve,
	// and DM/FX saturate — their response at 32 disks stays well above
	// optimal while HCAM tracks closer.
	for _, tb := range tables {
		dm := parseSeries(t, tb, "DM/D")
		fx := parseSeries(t, tb, "FX/D")
		hcam := parseSeries(t, tb, "HCAM/D")
		opt := parseSeries(t, tb, "optimal")
		for i := range opt {
			for _, s := range [][]float64{dm, fx, hcam} {
				if s[i] < opt[i]-1e-9 {
					t.Errorf("%s: series below optimal at disks idx %d", tb.Title, i)
				}
			}
		}
		last := len(opt) - 1
		if hcam[last] > dm[last]+0.5 {
			t.Errorf("%s: HCAM (%.2f) clearly worse than DM (%.2f) at 32 disks",
				tb.Title, hcam[last], dm[last])
		}
	}
}

func TestFigure6MinimaxWins(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		mm := parseSeries(t, tb, "MiniMax")
		dm := parseSeries(t, tb, "DM/D")
		fx := parseSeries(t, tb, "FX/D")
		last := len(mm) - 1
		// Paper: minimax consistently beats the others at scale (allowing
		// the small-M exceptions it notes). Compare at the largest M.
		if mm[last] > dm[last]+1e-9 {
			t.Errorf("%s: MiniMax %.3f worse than DM %.3f at 32 disks", tb.Title, mm[last], dm[last])
		}
		if mm[last] > fx[last]+1e-9 {
			t.Errorf("%s: MiniMax %.3f worse than FX %.3f at 32 disks", tb.Title, mm[last], fx[last])
		}
	}
}

func TestTable1BalanceBounds(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Table1()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for _, label := range []string{"DM/D", "FX/D", "HCAM/D", "MiniMax"} {
		series := parseSeries(t, tb, label)
		for i, v := range series {
			if v < 1.0-1e-9 {
				t.Errorf("%s at idx %d: balance degree %.3f below 1", label, i, v)
			}
		}
	}
	// MiniMax must achieve the ceiling bound exactly.
	b, _ := lab.dataset("hot.2d")
	n := len(b.grid.Buckets)
	mm := parseSeries(t, tb, "MiniMax")
	for i, m := range lab.opts.Disks {
		ceil := (n + m - 1) / m
		bound := float64(ceil) * float64(m) / float64(n)
		if mm[i] > bound+1e-6 {
			t.Errorf("MiniMax balance %.4f exceeds ceiling bound %.4f at M=%d", mm[i], bound, m)
		}
	}
}

func TestTables23MinimaxNearZero(t *testing.T) {
	lab := NewLab(testOptions())
	for _, id := range []string{"tab2", "tab3"} {
		tables, err := lab.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		tb := tables[0]
		mm := parseSeries(t, tb, "MiniMax")
		dm := parseSeries(t, tb, "DM/D")
		b, _ := lab.dataset(map[string]string{"tab2": "DSMC.3d", "tab3": "stock.3d"}[id])
		n := float64(len(b.grid.Buckets))
		last := len(mm) - 1
		if mm[last] > n/20 {
			t.Errorf("%s: MiniMax closest pairs %.0f out of %.0f buckets", id, mm[last], n)
		}
		if dm[last] < mm[last] {
			t.Errorf("%s: DM (%0.f) below MiniMax (%.0f) on closest pairs", id, dm[last], mm[last])
		}
	}
}

func TestTable4ElapsedDecreases(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Table4()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var resp, elapsed []float64
	for _, line := range strings.Split(tb.Render(), "\n")[2:] {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		r, err1 := strconv.ParseFloat(fields[2], 64)
		e, err2 := strconv.ParseFloat(fields[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %q", line)
		}
		resp = append(resp, r)
		elapsed = append(elapsed, e)
	}
	if len(resp) != 3 {
		t.Fatalf("%d rows", len(resp))
	}
	for i := 1; i < 3; i++ {
		if resp[i] >= resp[i-1] {
			t.Errorf("response blocks not decreasing: %v", resp)
		}
	}
	// At test scale fixed per-query costs blur adjacent worker counts, so
	// assert the endpoint comparison the paper's table guarantees.
	if elapsed[2] >= elapsed[0] {
		t.Errorf("elapsed with 16 workers (%v) not below 4 workers (%v)", elapsed[2], elapsed[0])
	}
}

func TestFigure7SpeedupNormalized(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	sp := tables[1]
	for _, label := range []string{"HCAM/D, r=0.01", "MiniMax, r=0.10"} {
		series := parseSeries(t, sp, label)
		if series[0] != 1.0 {
			t.Errorf("%s: speedup at 4 disks = %.3f, want 1", label, series[0])
		}
	}
}

func TestMeanResponseRowAgainstDirectReplay(t *testing.T) {
	lab := NewLab(testOptions())
	b, err := lab.dataset("hot.2d")
	if err != nil {
		t.Fatal(err)
	}
	queries := lab.queriesFor(b.grid.Domain, 0.05)
	alg := &core.Minimax{Seed: lab.opts.Seed}
	rts, _, err := lab.meanResponseRow(b, alg, queries)
	if err != nil {
		t.Fatal(err)
	}
	alloc, _ := alg.Decluster(b.grid, lab.opts.Disks[0])
	res, err := sim.Replay(b.file, alloc, b.indexByID, queries)
	if err != nil {
		t.Fatal(err)
	}
	if rts[0] != res.MeanResponseTime {
		t.Errorf("row %.4f != direct replay %.4f", rts[0], res.MeanResponseTime)
	}
}

func TestHCAMScalingShapes(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.HCAMScaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		var dm, fx, hcam []float64
		for _, line := range strings.Split(tb.Render(), "\n")[2:] {
			fields := strings.Fields(line)
			if len(fields) < 5 {
				continue
			}
			parse := func(s string) float64 {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					t.Fatalf("bad cell %q", s)
				}
				return v
			}
			dm = append(dm, parse(fields[1]))
			fx = append(fx, parse(fields[2]))
			hcam = append(hcam, parse(fields[3]))
		}
		if len(dm) != 6 {
			t.Fatalf("%d rows", len(dm))
		}
		last := len(dm) - 1
		// The Faloutsos–Bhagwat result: HCAM wins for many disks.
		if hcam[last] >= fx[last] || hcam[last] >= dm[last] {
			t.Errorf("%s: HCAM %.2f not below DM %.2f / FX %.2f at 64 disks",
				tb.Title, hcam[last], dm[last], fx[last])
		}
		// DM saturates: its last three rows are identical.
		if dm[3] != dm[4] || dm[4] != dm[5] {
			t.Errorf("%s: DM did not saturate: %v", tb.Title, dm[3:])
		}
		// HCAM keeps strictly improving across the sweep's second half.
		if !(hcam[5] < hcam[4] && hcam[4] < hcam[3]) {
			t.Errorf("%s: HCAM not strictly improving: %v", tb.Title, hcam[3:])
		}
	}
}

func TestRTreeExperimentShapes(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.RTree()
	if err != nil {
		t.Fatal(err)
	}
	rt, cp := tables[0], tables[1]
	mm := parseSeries(t, rt, "MiniMax")
	cc := parseSeries(t, rt, "CentroidCurve(hilbert)")
	opt := parseSeries(t, rt, "optimal")
	last := len(mm) - 1
	if mm[last] > cc[last]+1e-9 {
		t.Errorf("MiniMax %.3f above CentroidCurve %.3f at 32 disks", mm[last], cc[last])
	}
	for i := range opt {
		if mm[i] < opt[i]-1e-9 {
			t.Errorf("MiniMax below optimal at idx %d", i)
		}
	}
	mmPairs := parseSeries(t, cp, "MiniMax")
	if mmPairs[last] > 3 {
		t.Errorf("MiniMax closest leaf pairs %.0f at 32 disks", mmPairs[last])
	}
}

func TestPartialMatchDMNearOptimal(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.PartialMatch()
	if err != nil {
		t.Fatal(err)
	}
	uniform := tables[0]
	dm := parseSeries(t, uniform, "DM/D")
	mm := parseSeries(t, uniform, "MiniMax")
	last := len(dm) - 1
	// On the near-Cartesian uniform grid, DM is the partial-match
	// specialist: it must not lose to minimax at the largest disk count.
	if dm[last] > mm[last]+0.25 {
		t.Errorf("DM %.3f clearly worse than MiniMax %.3f on partial match", dm[last], mm[last])
	}
}

func TestAblationGDMDeSaturates(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.AblationGDM()
	if err != nil {
		t.Fatal(err)
	}
	dm := parseSeries(t, tables[0], "DM/D")
	gdm := parseSeries(t, tables[0], "GDM/D")
	last := len(dm) - 1
	if gdm[last] > dm[last] {
		t.Errorf("GDM %.3f above DM %.3f at the largest disk count", gdm[last], dm[last])
	}
}

// TestAblationsA1toA3Shapes holds the conclusions EXPERIMENTS.md draws from
// ablation-sfc, ablation-mst and ablation-weight. Summed over the disk sweep
// (single disk counts wobble either way, at full scale too), Hilbert is the
// best linearization and the proximity index no worse an edge weight than
// Euclidean distance, in response time and in co-located closest pairs; at
// every disk count MST is less balanced than minimax and no faster.
func TestAblationsA1toA3Shapes(t *testing.T) {
	lab := NewLab(testOptions())
	run := func(id string) []*stats.Table {
		ts, err := lab.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	sweepSum := func(tb *stats.Table, label string) (total float64) {
		for _, v := range parseSeries(t, tb, label) {
			total += v
		}
		return total
	}
	sfc, weight, mst := run("ablation-sfc"), run("ablation-weight"), run("ablation-mst")
	for _, c := range []struct {
		tb            *stats.Table
		better, worse string
	}{
		{sfc[0], "HCAM/D", "ZCAM/D"},
		{sfc[0], "HCAM/D", "GrayCAM/D"},
		{weight[0], "MiniMax", "MiniMax(euclid)"},
		{weight[1], "MiniMax", "MiniMax(euclid)"},
	} {
		if b, w := sweepSum(c.tb, c.better), sweepSum(c.tb, c.worse); b > w {
			t.Errorf("%s: %s sums to %.2f over the sweep, above %s at %.2f", c.tb.Title, c.better, b, c.worse, w)
		}
	}
	mmRT, mstRT := parseSeries(t, mst[0], "MiniMax"), parseSeries(t, mst[0], "MST")
	mmBal, mstBal := parseSeries(t, mst[1], "MiniMax"), parseSeries(t, mst[1], "MST")
	for i := range mmRT {
		if mstRT[i] < mmRT[i] || mstBal[i] <= mmBal[i] {
			t.Errorf("disks idx %d: MST response %.2f, balance %.2f against minimax %.2f, %.2f",
				i, mstRT[i], mstBal[i], mmRT[i], mmBal[i])
		}
	}
}

func TestTraceLocalityBeatsRandom(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.Trace()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(tables[0].Render(), "\n")
	hit := func(line string) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			t.Fatalf("bad row %q", line)
		}
		return v
	}
	// lines: 0 title, 1 header, 2 separator, then the four data rows:
	// DSMC trace, DSMC random, MHD trace, MHD random.
	if hit(lines[3]) <= hit(lines[4]) {
		t.Errorf("DSMC trace hit rate %.2f not above random %.2f", hit(lines[3]), hit(lines[4]))
	}
	if hit(lines[5]) <= hit(lines[6]) {
		t.Errorf("MHD trace hit rate %.2f not above random %.2f", hit(lines[5]), hit(lines[6]))
	}
}

func TestAblationSeqIOHelps(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.AblationSeqIO()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(tables[0].Render(), "\n")
	field := func(line string, idx int) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[idx], 64)
		if err != nil {
			t.Fatalf("bad row %q", line)
		}
		return v
	}
	// Rows 3 (false) and 4 (true): same blocks, elevator no slower and some
	// reads served sequentially.
	if field(lines[3], 1) != field(lines[4], 1) {
		t.Error("block counts differ between modes")
	}
	if field(lines[4], 3) > field(lines[3], 3) {
		t.Errorf("elevator elapsed %.2f above random %.2f", field(lines[4], 3), field(lines[3], 3))
	}
	if field(lines[4], 2) <= 0 {
		t.Error("no sequentially-served reads with elevator scheduling")
	}
}

func TestDirIOPageTradeoff(t *testing.T) {
	lab := NewLab(testOptions())
	tables, err := lab.DirIO()
	if err != nil {
		t.Fatal(err)
	}
	var accesses []float64
	for _, line := range strings.Split(tables[0].Render(), "\n")[3:] {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatalf("bad row %q", line)
		}
		accesses = append(accesses, v)
	}
	if len(accesses) != 4 {
		t.Fatalf("%d rows", len(accesses))
	}
	// Larger pages -> fewer page accesses per query. Tile-shape rounding
	// can wobble adjacent sizes on tiny grids, so assert the endpoints
	// plus a small tolerance on the interior.
	if accesses[len(accesses)-1] > accesses[0] {
		t.Errorf("largest page size costs more than smallest: %v", accesses)
	}
	for i := 1; i < len(accesses); i++ {
		if accesses[i] > accesses[i-1]*1.15 {
			t.Errorf("page accesses clearly non-monotone: %v", accesses)
		}
	}
	for _, v := range accesses {
		if v < 1 {
			t.Errorf("per-query accesses below 1: %v", accesses)
		}
	}
}
