package sim

import (
	"math"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
)

// viewProbe is an adversary that hands its View to a callback — the unit
// harness for View queries against a live engine.
type viewProbe struct {
	fn func(v adversary.View)
}

func (p *viewProbe) Name() string                                                { return "probe" }
func (p *viewProbe) Act(v adversary.View, m adversary.Mutator, src *prng.Source) { p.fn(v) }

// probeEngine builds a tiny engine over the given matcher (nil = mixed) and
// runs one round so the probe observes the bound View.
func probeEngine(t *testing.T, m match.Matcher, fn func(v adversary.View)) {
	t.Helper()
	p := fastParams(t)
	e := MustNew(Config{
		Params: p, Protocol: protocol.MustNew(p), Seed: 5, Workers: 1,
		Matcher: m, Adversary: &viewProbe{fn: fn}, K: 1, InitialSize: 512,
	})
	e.RunRound()
}

// TestCountNearMatchesFindNear pins CountNear against the FindNear
// reference on every spatial geometry: for a grid of balls the count must
// equal the number of indices FindNear reports (unlimited).
func TestCountNearMatchesFindNear(t *testing.T) {
	sigma := 1e-3
	mk := func(name string) match.Matcher {
		var (
			m   match.Matcher
			err error
		)
		switch name {
		case "torus":
			m, err = match.NewTorus(sigma)
		case "grid":
			m, err = match.NewGrid(sigma)
		case "ring":
			m, err = match.NewRing(sigma)
		case "smallworld":
			m, err = match.NewSmallWorld(sigma, 0.2)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, name := range []string{"torus", "grid", "ring", "smallworld"} {
		t.Run(name, func(t *testing.T) {
			probeEngine(t, mk(name), func(v adversary.View) {
				if !v.HasSpace() {
					t.Fatal("spatial view reports no space")
				}
				for _, center := range []population.Point{
					{X: 0.5, Y: 0.5}, {X: 0.01, Y: 0.99}, {X: 0.875}, {},
				} {
					for _, r := range []float64{0, 0.01, 0.1, 0.45, 2} {
						got := v.CountNear(center, r)
						want := len(v.FindNear(nil, -1, center, r))
						if got != want {
							t.Errorf("CountNear(%v, %v) = %d, FindNear found %d", center, r, got, want)
						}
					}
				}
				// r covering the whole space counts everyone.
				if got := v.CountNear(population.Point{X: 0.5, Y: 0.5}, 2); got != v.Len() {
					t.Errorf("full-space count %d, population %d", got, v.Len())
				}
			})
		})
	}
}

// TestCountNearExact pins exact counts per geometry on hand-placed
// positions, exercising each metric's distinctive feature: the torus and
// ring wrap, the grid does not.
func TestCountNearExact(t *testing.T) {
	cases := []struct {
		name   string
		mk     func() (match.Matcher, error)
		center population.Point
		r      float64
		// layout places agent i; in-ball agents are the first `want`.
		layout func(i int) population.Point
		want   int
	}{
		{
			name:   "ring wraps across 1",
			mk:     func() (match.Matcher, error) { return match.NewRing(1e-3) },
			center: population.Point{X: 0.0},
			r:      0.1,
			layout: func(i int) population.Point {
				if i < 3 {
					// 0.95, 0.05, 0.99: all within wrapped arc 0.1 of 0.
					return population.Point{X: []float64{0.95, 0.05, 0.99}[i]}
				}
				return population.Point{X: 0.5 + float64(i)*1e-4}
			},
			want: 3,
		},
		{
			name:   "torus wraps both axes",
			mk:     func() (match.Matcher, error) { return match.NewTorus(1e-3) },
			center: population.Point{X: 0.02, Y: 0.98},
			r:      0.1,
			layout: func(i int) population.Point {
				if i < 2 {
					// Across both wrap seams from the center.
					return []population.Point{{X: 0.98, Y: 0.02}, {X: 0.05, Y: 0.95}}[i]
				}
				return population.Point{X: 0.5, Y: 0.5}
			},
			want: 2,
		},
		{
			name:   "grid does not wrap",
			mk:     func() (match.Matcher, error) { return match.NewGrid(1e-3) },
			center: population.Point{X: 0.02, Y: 0.02},
			r:      0.1,
			layout: func(i int) population.Point {
				if i < 2 {
					return []population.Point{{X: 0.05, Y: 0.05}, {X: 0.0, Y: 0.1}}[i]
				}
				// Would be in range under wraparound, must NOT count.
				return population.Point{X: 0.98, Y: 0.98}
			},
			want: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			const n = 16
			probeEngine(t, m, func(v adversary.View) {
				sp := m.(match.Spatial)
				for i := 0; i < v.Len(); i++ {
					sp.Positions().SetAt(i, tc.layout(i%n))
				}
				inBall := 0
				for i := 0; i < v.Len(); i++ {
					if i%n < tc.want {
						inBall++
					}
				}
				if got := v.CountNear(tc.center, tc.r); got != inBall {
					t.Errorf("CountNear = %d, want %d", got, inBall)
				}
			})
		})
	}
}

// TestCountNearFlatland pins the position-blind default: −1, distinct from
// an empty ball, on the mixed topology and on the Flatland helper itself.
func TestCountNearFlatland(t *testing.T) {
	probeEngine(t, nil, func(v adversary.View) {
		if v.HasSpace() {
			t.Fatal("mixed view reports space")
		}
		if got := v.CountNear(population.Point{X: 0.5}, math.Inf(1)); got != -1 {
			t.Errorf("mixed CountNear = %d, want -1", got)
		}
	})
	var f adversary.Flatland
	if got := f.CountNear(population.Point{}, 1); got != -1 {
		t.Errorf("Flatland.CountNear = %d, want -1", got)
	}
}
