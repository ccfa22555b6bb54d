package sim

import (
	"runtime"
	"testing"

	"popstab/internal/match"
	"popstab/internal/protocol"
)

// newTorusEngine builds the spatial model of experiment A5: the paper
// protocol on the torus, daughters placed one mean spacing 1/√N (= 1/64 at
// N = 4096) from their parent, no adversary.
func newTorusEngine(t *testing.T, seed uint64, workers int) (*Engine, *match.Torus) {
	t.Helper()
	p := fastParams(t)
	tor, err := match.NewTorus(0.015625)
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(Config{Params: p, Protocol: protocol.MustNew(p), Matcher: tor, Seed: seed, Workers: workers})
	t.Cleanup(e.Close)
	return e, tor
}

// TestTorusGoldenTrajectory pins the exact spatial trajectory of a fixed
// configuration, the torus twin of TestGoldenTrajectory, and that it is the
// same at every worker count. If a change is INTENDED, rerun with -v and
// update the constant.
func TestTorusGoldenTrajectory(t *testing.T) {
	const want = uint64(9749419792947619442)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		e, _ := newTorusEngine(t, 424242, workers)
		var checksum uint64
		for i := 0; i < 2*e.Params().T; i++ {
			rep := e.RunRound()
			checksum = checksum*31 + uint64(rep.SizeAfter)
		}
		if checksum != want {
			t.Errorf("workers=%d: trajectory checksum changed: got %d, want %d\n"+
				"(if this change is intentional, update the golden value)", workers, checksum, want)
		}
	}
}

// TestTorusProbeDoesNotPerturbTrajectory pins SampleProbe's contract: the
// probe draws from a dedicated stream, so a probed and an unprobed run of
// the same configuration follow identical trajectories (the paired-
// comparison property of DESIGN.md §5 that experiment A5's color probe
// relies on).
func TestTorusProbeDoesNotPerturbTrajectory(t *testing.T) {
	run := func(probe bool) []int {
		e, tor := newTorusEngine(t, 8, 1)
		var pairing match.Pairing
		var sizes []int
		for i := 0; i < e.Params().T; i++ {
			if probe && i%10 == 0 {
				tor.SampleProbe(e.Population(), &pairing)
			}
			sizes = append(sizes, e.RunRound().SizeAfter)
		}
		return sizes
	}
	plain, probed := run(false), run(true)
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("probe perturbed the trajectory at round %d: %d != %d",
				i, plain[i], probed[i])
		}
	}
}
