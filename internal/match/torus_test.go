package match

import (
	"math"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

func TestNewTorusValidation(t *testing.T) {
	for _, sigma := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewTorus(sigma); err == nil {
			t.Errorf("NewTorus accepted sigma %v", sigma)
		}
	}
	if _, err := NewTorus(0.01); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDistance(t *testing.T) {
	cases := []struct {
		a, b population.Point
		want float64
	}{
		{population.Point{X: 0, Y: 0}, population.Point{X: 0, Y: 0}, 0},
		{population.Point{X: 0.1, Y: 0}, population.Point{X: 0.2, Y: 0}, 0.01},
		{population.Point{X: 0.05, Y: 0}, population.Point{X: 0.95, Y: 0}, 0.01}, // wraps around
		{population.Point{X: 0, Y: 0.05}, population.Point{X: 0, Y: 0.95}, 0.01},
		{population.Point{X: 0, Y: 0}, population.Point{X: 0.5, Y: 0.5}, 0.5},
	}
	for _, tc := range cases {
		if got := TorusDist2(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("TorusDist2(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestWrap(t *testing.T) {
	cases := map[float64]float64{0.5: 0.5, 1.25: 0.25, -0.25: 0.75, 2.5: 0.5}
	for in, want := range cases {
		if got := wrap(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("wrap(%v) = %v, want %v", in, got, want)
		}
	}
}

// boundTorus builds a bound torus over a fresh population of n agents.
func boundTorus(t *testing.T, n int, seed uint64) (*Torus, *population.Population) {
	t.Helper()
	const sigma = 1.0 / 64 // spacing at n = 4096
	tor, err := NewTorus(sigma)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(seed), nil)
	return tor, pop
}

func TestTorusBindInitializesPositions(t *testing.T) {
	tor, pop := boundTorus(t, 100, 1)
	if tor.Positions().Len() != pop.Len() {
		t.Fatalf("positions %d != population %d", tor.Positions().Len(), pop.Len())
	}
	for i := 0; i < tor.Positions().Len(); i++ {
		pt := tor.Positions().At(i)
		if pt.X < 0 || pt.X >= 1 || pt.Y < 0 || pt.Y >= 1 {
			t.Fatalf("position %d out of torus: %+v", i, pt)
		}
	}
}

func TestTorusMatchingIsValidAndLocal(t *testing.T) {
	const n = 4096
	tor, pop := boundTorus(t, n, 2)
	var p Pairing
	tor.SampleMatch(pop, prng.New(3), &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	matched := 0
	var sumD float64
	for i := 0; i < n; i++ {
		j := p.Nbr[i]
		if j == Unmatched {
			continue
		}
		matched++
		sumD += math.Sqrt(TorusDist2(tor.Positions().At(i), tor.Positions().At(int(j))))
	}
	if matched < n/2 {
		t.Errorf("only %d of %d agents matched", matched, n)
	}
	// Locality: mean pair distance must be on the order of the spacing
	// 1/√n, far below the uniform-matching expectation ≈ 0.38.
	meanD := sumD / float64(matched)
	spacing := 1 / math.Sqrt(float64(n))
	if meanD > 5*spacing {
		t.Errorf("mean pair distance %.4f not local (spacing %.4f)", meanD, spacing)
	}
}

func TestTorusDaughterPlacedNearParent(t *testing.T) {
	tor, _ := boundTorus(t, 16, 4)
	parent := population.Point{X: 0.5, Y: 0.5}
	for i := 0; i < 1000; i++ {
		d := math.Sqrt(TorusDist2(parent, tor.daughter(parent)))
		if d > 10*tor.Sigma {
			t.Fatalf("daughter placed %.4f away (sigma %.4f)", d, tor.Sigma)
		}
	}
}

// TestTorusTracksMutations drives inserts, deletes, and an Apply pass
// through the population and asserts the side-array stays aligned and
// matching still works.
func TestTorusTracksMutations(t *testing.T) {
	tor, pop := boundTorus(t, 64, 5)
	src := prng.New(6)
	for step := 0; step < 50; step++ {
		switch src.Intn(3) {
		case 0:
			pop.Insert(pop.State(src.Intn(pop.Len())))
		case 1:
			pop.DeleteSwap(src.Intn(pop.Len()))
		default:
			actions := make([]population.Action, pop.Len())
			for i := range actions {
				actions[i] = population.Action(src.Intn(3))
			}
			pop.Apply(actions)
		}
		if tor.Positions().Len() != pop.Len() {
			t.Fatalf("step %d: positions %d != population %d", step, tor.Positions().Len(), pop.Len())
		}
	}
	var p Pairing
	tor.SampleMatch(pop, src, &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusSampleProbeDoesNotTouchGivenStream(t *testing.T) {
	tor, pop := boundTorus(t, 128, 7)
	var p Pairing
	tor.SampleProbe(pop, &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromSchedulerPreservesBehavior(t *testing.T) {
	u, err := NewUniform(0.25)
	if err != nil {
		t.Fatal(err)
	}
	m := FromScheduler(u)
	if m.Name() != u.Name() || m.MinFraction() != u.MinFraction() {
		t.Error("adapter does not promote Name/MinFraction")
	}
	const n = 1000
	pop := population.New(n)
	var a, b Pairing
	u.Sample(n, prng.New(9), &a)
	m.SampleMatch(pop, prng.New(9), &b)
	for i := range a.Nbr {
		if a.Nbr[i] != b.Nbr[i] {
			t.Fatalf("adapter diverged at %d: %d != %d", i, a.Nbr[i], b.Nbr[i])
		}
	}
}
