package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalLength(t *testing.T) {
	cases := []struct {
		iv   Interval
		want float64
	}{
		{Interval{0, 1}, 1},
		{Interval{-2, 3}, 5},
		{Interval{4, 4}, 0},
		{Interval{5, 1}, 0}, // empty interval
	}
	for _, c := range cases {
		if got := c.iv.Length(); got != c.want {
			t.Errorf("Length(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{1, 3}
	for _, x := range []float64{1, 2, 3} {
		if !iv.Contains(x) {
			t.Errorf("Contains(%v) = false, want true", x)
		}
	}
	for _, x := range []float64{0.999, 3.001, -1} {
		if iv.Contains(x) {
			t.Errorf("Contains(%v) = true, want false", x)
		}
	}
}

func TestIntervalIntersects(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 1}, Interval{1, 2}, true}, // touching counts
		{Interval{0, 1}, Interval{2, 3}, false},
		{Interval{0, 5}, Interval{2, 3}, true}, // containment
		{Interval{2, 3}, Interval{0, 5}, true},
		{Interval{0, 2}, Interval{1, 3}, true},
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("Intersects(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestIntervalOverlapAndGap(t *testing.T) {
	a := Interval{0, 4}
	b := Interval{2, 6}
	if got := a.Overlap(b); got != 2 {
		t.Errorf("Overlap = %v, want 2", got)
	}
	if got := a.Gap(b); got != 0 {
		t.Errorf("Gap of intersecting intervals = %v, want 0", got)
	}
	c := Interval{7, 9}
	if got := a.Overlap(c); got != 0 {
		t.Errorf("Overlap of disjoint = %v, want 0", got)
	}
	if got := a.Gap(c); got != 3 {
		t.Errorf("Gap = %v, want 3", got)
	}
	if got := c.Gap(a); got != 3 {
		t.Errorf("Gap reversed = %v, want 3", got)
	}
	// Touching intervals: zero overlap, zero gap.
	d := Interval{4, 5}
	if got := a.Overlap(d); got != 0 {
		t.Errorf("Overlap of touching = %v, want 0", got)
	}
	if got := a.Gap(d); got != 0 {
		t.Errorf("Gap of touching = %v, want 0", got)
	}
}

func TestNewRectPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with mismatched slices did not panic")
		}
	}()
	NewRect([]float64{0, 0}, []float64{1})
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect([]float64{0, 0}, []float64{10, 20})
	if !r.ContainsPoint(Point{5, 5}) {
		t.Error("interior point not contained")
	}
	if !r.ContainsPoint(Point{0, 0}) || !r.ContainsPoint(Point{10, 20}) {
		t.Error("boundary points not contained")
	}
	if r.ContainsPoint(Point{11, 5}) {
		t.Error("exterior point contained")
	}
	if r.ContainsPoint(Point{5}) {
		t.Error("dimension-mismatched point contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{4, 4})
	b := NewRect([]float64{2, 2}, []float64{6, 6})
	c := NewRect([]float64{5, 5}, []float64{7, 7})
	if !a.Intersects(b) {
		t.Error("overlapping rects reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	// Rects overlapping in x but not y are disjoint.
	d := NewRect([]float64{0, 10}, []float64{4, 12})
	if a.Intersects(d) {
		t.Error("rects disjoint in one dim reported intersecting")
	}
	// Touching along an edge counts as intersecting (closed boxes).
	e := NewRect([]float64{4, 0}, []float64{8, 4})
	if !a.Intersects(e) {
		t.Error("edge-touching rects reported disjoint")
	}
}

func TestRectVolumeCenterUnion(t *testing.T) {
	r := NewRect([]float64{0, 0, 0}, []float64{2, 3, 4})
	if got := r.Volume(); got != 24 {
		t.Errorf("Volume = %v, want 24", got)
	}
	c := r.Center()
	want := Point{1, 1.5, 2}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("Center[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	s := NewRect([]float64{-1, 1, 5}, []float64{1, 2, 6})
	u := r.Union(s)
	wantU := NewRect([]float64{-1, 0, 0}, []float64{2, 3, 6})
	for i := range wantU {
		if u[i] != wantU[i] {
			t.Errorf("Union[%d] = %v, want %v", i, u[i], wantU[i])
		}
	}
}

func TestProximityIdenticalBoxes(t *testing.T) {
	domain := NewRect([]float64{0, 0}, []float64{100, 100})
	r := NewRect([]float64{0, 0}, []float64{100, 100})
	// A box identical to the whole domain has delta=1 per dim: ((1+2)/3)^2 = 1.
	if got := Proximity(r, r, domain); math.Abs(got-1) > 1e-12 {
		t.Errorf("Proximity(domain,domain) = %v, want 1", got)
	}
}

func TestProximityKnownValues(t *testing.T) {
	domain := NewRect([]float64{0, 0}, []float64{10, 10})
	a := NewRect([]float64{0, 0}, []float64{5, 5})
	b := NewRect([]float64{5, 0}, []float64{10, 5})
	// Dim 0: touching => delta=0 => 1/3. Dim 1: overlap 5/10 => (1+1)/3 = 2/3.
	want := (1.0 / 3.0) * (2.0 / 3.0)
	if got := Proximity(a, b, domain); math.Abs(got-want) > 1e-12 {
		t.Errorf("Proximity = %v, want %v", got, want)
	}

	c := NewRect([]float64{8, 8}, []float64{10, 10})
	// Dim 0: gap 3/10 => (0.7)^2/3; dim 1 same.
	wantC := math.Pow(0.49/3, 2)
	if got := Proximity(a, c, domain); math.Abs(got-wantC) > 1e-12 {
		t.Errorf("Proximity = %v, want %v", got, wantC)
	}
}

func TestProximityAdjacentCloserThanDistant(t *testing.T) {
	domain := NewRect([]float64{0, 0}, []float64{100, 100})
	base := NewRect([]float64{0, 0}, []float64{10, 10})
	adjacent := NewRect([]float64{10, 0}, []float64{20, 10})
	distant := NewRect([]float64{80, 0}, []float64{90, 10})
	if Proximity(base, adjacent, domain) <= Proximity(base, distant, domain) {
		t.Error("adjacent box should have strictly higher proximity than distant box")
	}
}

// randomRectIn produces a random sub-box of the given domain.
func randomRectIn(rng *rand.Rand, domain Rect) Rect {
	r := make(Rect, len(domain))
	for i, iv := range domain {
		a := iv.Lo + rng.Float64()*iv.Length()
		b := iv.Lo + rng.Float64()*iv.Length()
		if a > b {
			a, b = b, a
		}
		r[i] = Interval{a, b}
	}
	return r
}

func TestProximityPropertyBoundsAndSymmetry(t *testing.T) {
	domain := NewRect([]float64{0, 0, 0}, []float64{1000, 500, 200})
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		r := randomRectIn(local, domain)
		s := randomRectIn(local, domain)
		p := Proximity(r, s, domain)
		q := Proximity(s, r, domain)
		if p < 0 || p > 1 {
			return false
		}
		return math.Abs(p-q) < 1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("proximity bounds/symmetry property failed: %v", err)
	}
}

func TestProximitySelfIsMaximal(t *testing.T) {
	// Proximity(r, r) must dominate Proximity(r, s) for any s of the same
	// shape elsewhere in the domain (a box is its own best companion).
	domain := NewRect([]float64{0, 0}, []float64{100, 100})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		r := randomRectIn(rng, domain)
		s := randomRectIn(rng, domain)
		if Proximity(r, r, domain) < Proximity(r, s, domain)-1e-12 {
			t.Fatalf("self-proximity not maximal: r=%v s=%v", r, s)
		}
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone is not independent")
	}
}

func TestRectString(t *testing.T) {
	r := NewRect([]float64{0, 1.5}, []float64{2, 3})
	if got := r.String(); got != "[0,2]x[1.5,3]" {
		t.Errorf("String = %q", got)
	}
	p := Point{1, 2}
	if got := p.String(); got != "(1, 2)" {
		t.Errorf("Point.String = %q", got)
	}
}

func TestProximityDegenerateDomainAxis(t *testing.T) {
	// A zero-length domain axis must not produce NaN or zero-division.
	domain := NewRect([]float64{0, 5}, []float64{10, 5})
	a := NewRect([]float64{0, 5}, []float64{5, 5})
	b := NewRect([]float64{5, 5}, []float64{10, 5})
	got := Proximity(a, b, domain)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Proximity with degenerate axis = %v", got)
	}
	if got < 0 || got > 1 {
		t.Fatalf("Proximity with degenerate axis out of range: %v", got)
	}
}
