package sim

import (
	"fmt"
	"runtime"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
)

// trajectory captures everything RunRound reports plus a census snapshot,
// so two runs comparing equal means the simulations are bit-identical at
// the observable level.
type trajectory struct {
	reports  []RoundReport
	censuses []population.Census
}

func runTrajectory(t *testing.T, cfg Config, rounds int) trajectory {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	for i := 0; i < rounds; i++ {
		tr.reports = append(tr.reports, e.RunRound())
		tr.censuses = append(tr.censuses, e.Census())
	}
	return tr
}

func assertTrajectoriesEqual(t *testing.T, a, b trajectory, label string) {
	t.Helper()
	for i := range a.reports {
		if a.reports[i] != b.reports[i] {
			t.Fatalf("%s: RoundReport diverged at round %d:\n  a=%+v\n  b=%+v",
				label, i, a.reports[i], b.reports[i])
		}
		if fmt.Sprintf("%+v", a.censuses[i]) != fmt.Sprintf("%+v", b.censuses[i]) {
			t.Fatalf("%s: Census diverged at round %d:\n  a=%+v\n  b=%+v",
				label, i, a.censuses[i], b.censuses[i])
		}
	}
}

// TestParallelDeterminism is the golden determinism guarantee of the
// parallel round engine: identical RoundReport and Census trajectories for
// Workers ∈ {1, 2, 3, 8}, with and without an adversary. The worker pool
// shards the compose/step phases, so any order dependence in per-agent
// randomness or any cross-shard interference would show up here (and under
// -race, which this test also serves as the workload for).
func TestParallelDeterminism(t *testing.T) {
	p := fastParams(t)
	arms := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Seed: 101}},
		{"greedy-adversary", Config{Seed: 102, K: 3, Adversary: adversary.NewGreedy()}},
		{"after-step-timing", Config{Seed: 103, K: 2, Adversary: adversary.NewBenignInserter(), AdversaryAfterStep: true}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			serial := arm.cfg
			serial.Params = p
			serial.Protocol = protocol.MustNew(p)
			serial.Workers = 1
			want := runTrajectory(t, serial, 2*p.T)
			for _, w := range []int{2, 3, 8} {
				cfg := arm.cfg
				cfg.Params = p
				cfg.Protocol = protocol.MustNew(p)
				cfg.Workers = w
				got := runTrajectory(t, cfg, 2*p.T)
				assertTrajectoriesEqual(t, want, got, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

// TestParallelCounters asserts the protocol's atomic event counters reach
// identical totals across worker counts (the events are per-agent
// deterministic; only increment order varies).
func TestParallelCounters(t *testing.T) {
	p := fastParams(t)
	run := func(workers int) protocol.Counters {
		pr := protocol.MustNew(p)
		e, err := New(Config{Params: p, Protocol: pr, Seed: 55, Workers: workers,
			K: 2, Adversary: adversary.NewGreedy()})
		if err != nil {
			t.Fatal(err)
		}
		e.RunRounds(2 * p.T)
		return *pr.Counters()
	}
	want := run(1)
	if want.Leaders == 0 || want.Recruits == 0 {
		t.Fatalf("degenerate run, counters empty: %+v", want)
	}
	for _, w := range []int{2, 8} {
		if got := run(w); got != want {
			t.Errorf("workers=%d counters diverged:\n  got  %+v\n  want %+v", w, got, want)
		}
	}
}

// TestWorkersValidation rejects negative worker counts and accepts the
// NumCPU default.
func TestWorkersValidation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	if _, err := New(Config{Params: p, Protocol: pr, Workers: -1}); err == nil {
		t.Error("New accepted negative Workers")
	}
	e, err := New(Config{Params: p, Protocol: pr})
	if err != nil {
		t.Fatal(err)
	}
	if e.workers < 1 {
		t.Errorf("default workers %d", e.workers)
	}
}

// TestShardCapSmallPopulation drives a population far below minShardAgents
// with many workers: the shard cap must degrade to the serial path without
// changing behavior (covered by determinism) or panicking on zero shards.
func TestShardCapSmallPopulation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	e, err := New(Config{Params: p, Protocol: pr, Seed: 9, Workers: 16, InitialSize: 37})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*p.T; i++ {
		e.RunRound()
	}
	if e.Size() < 0 {
		t.Fatal("impossible")
	}
}

// TestScratchGrowthSlack documents the 1.5× scratch-buffer growth policy:
// after a forced growth step the buffers must have room beyond the exact
// population size.
func TestScratchGrowthSlack(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	e := MustNew(Config{Params: p, Protocol: pr, Seed: 1})
	e.RunRound()
	e.ForceResize(2 * p.N)
	e.RunRound()
	if got, min := cap(e.msgs), 2*p.N; got < min+min/2 {
		t.Errorf("scratch capacity %d after growth to %d, want >= %d", got, min, min+min/2)
	}
}

// poolRecorder is a spatial Matcher that records the pool the engine hands
// it at Bind.
type poolRecorder struct {
	*match.Torus
	got *pool.Pool
}

func (r *poolRecorder) Bind(pop *population.Population, src *prng.Source, p *pool.Pool) {
	r.got = p
	r.Torus.Bind(pop, src, p)
}

// TestEngineWiresMatcherPool pins the Bind plumbing: the engine hands a
// spatial matcher, which shards its own matching phase, a pool sized to its
// resolved worker count (including the NumCPU default for Workers = 0).
func TestEngineWiresMatcherPool(t *testing.T) {
	p := fastParams(t)
	for _, workers := range []int{0, 1, 3} {
		pr, err := protocol.New(p)
		if err != nil {
			t.Fatal(err)
		}
		tor, err := match.NewTorus(0.015625)
		if err != nil {
			t.Fatal(err)
		}
		rec := &poolRecorder{Torus: tor}
		e, err := New(Config{Params: p, Protocol: pr, Seed: 1, Workers: workers, Matcher: rec})
		if err != nil {
			t.Fatal(err)
		}
		want := workers
		if want == 0 {
			want = runtime.NumCPU()
		}
		if rec.got == nil {
			t.Fatalf("Workers=%d: matcher got no pool", workers)
		}
		if got := rec.got.Workers(); got != want {
			t.Errorf("Workers=%d: matcher pool has %d workers, want %d", workers, got, want)
		}
		e.Close()
	}
}
