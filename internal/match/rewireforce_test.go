package match

import (
	"runtime"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// forceAllTargeter forces every agent's rewiring and aims the candidates at
// one arc of the ring.
type forceAllTargeter struct {
	center population.Point
	r      float64
}

func (f forceAllTargeter) Mode(int, population.Point) RewireMode { return RewireForce }
func (f forceAllTargeter) RewireTarget() (population.Point, float64, bool) {
	return f.center, f.r, true
}

// TestRewireForceTargetsPatch pins the targeting semantics: with every
// agent forced into the target arc, each matched pair was formed by some
// agent taking a candidate from its list — and every candidate list holds
// only arc members — so every matched pair touches the arc.
func TestRewireForceTargetsPatch(t *testing.T) {
	const n = 4096
	tgt := forceAllTargeter{center: population.Point{X: 0.3}, r: 0.04}
	sw, err := NewSmallWorld(1.0/n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(n)
	sw.Bind(pop, prng.New(41), nil)
	sw.SetRewireController(tgt)

	inPatch := func(i int32) bool {
		return RingDist2(sw.Positions().At(int(i)), tgt.center) <= tgt.r*tgt.r
	}
	var p Pairing
	src := prng.New(42)
	for round := 0; round < 3; round++ {
		sw.SampleMatch(pop, src, &p)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		matched, touching := 0, 0
		for i := int32(0); i < n; i++ {
			j := p.Nbr[i]
			if j == Unmatched || j < i {
				continue
			}
			matched++
			if inPatch(i) || inPatch(j) {
				touching++
			}
		}
		if matched == 0 {
			t.Fatalf("round %d: nothing matched", round)
		}
		if touching != matched {
			t.Errorf("round %d: %d of %d matched pairs avoid the target arc", round, matched-touching, matched)
		}
	}
}

// TestRewireForceEmptyPatchFallsBack pins the degraded mode: a target ball
// holding no agents leaves forced agents on uniform long-range draws, so
// the round still matches.
func TestRewireForceEmptyPatchFallsBack(t *testing.T) {
	const n = 1024
	sw, err := NewSmallWorld(1.0/n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(n)
	sw.Bind(pop, prng.New(51), nil)
	// Squeeze everyone into [0, 0.5) so the arc around 0.75 is empty.
	for i := 0; i < n; i++ {
		pt := sw.Positions().At(i)
		sw.Positions().SetAt(i, population.Point{X: pt.X / 2})
	}
	sw.SetRewireController(forceAllTargeter{center: population.Point{X: 0.75}, r: 0.1})
	var p Pairing
	sw.SampleMatch(pop, prng.New(52), &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := p.Matched(); m < n/2 {
		t.Fatalf("empty target arc collapsed the matching: %d of %d matched", m, n)
	}
}

// TestRewireForceWorkerInvariant pins determinism: the forced-target
// pipeline produces bit-identical pairings for every worker count.
func TestRewireForceWorkerInvariant(t *testing.T) {
	const n = 4096
	run := func(workers int) []int32 {
		sw, err := NewSmallWorld(1.0/n, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		pop := population.New(n)
		sw.Bind(pop, prng.New(61), nil)
		sw.SetRewireController(forceAllTargeter{center: population.Point{X: 0.7}, r: 0.03})
		attachPool(t, sw, workers)
		var p Pairing
		src := prng.New(62)
		out := make([]int32, 0, 3*n)
		for round := 0; round < 3; round++ {
			sw.SampleMatch(pop, src, &p)
			out = append(out, p.Nbr...)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, runtime.NumCPU()} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverges at slot %d: %d != %d", w, i, got[i], want[i])
			}
		}
	}
}
