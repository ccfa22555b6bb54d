package match

import (
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// Matcher is the population-state-aware generalization of Scheduler: it
// samples one round's communication pairing and may inspect the population
// (typically a side-array it registered at Bind time, such as spatial
// positions) rather than just its size. The unified round engine
// (internal/sim) speaks Matcher; plain Schedulers are adapted with
// FromScheduler.
type Matcher interface {
	// SampleMatch fills p with the round's pairing over the population.
	// It runs in the engine's serial matching phase.
	SampleMatch(pop *population.Population, src *prng.Source, p *Pairing)
	// MinFraction reports the guaranteed lower bound γ on the fraction of
	// agents matched each round (0 for matchers with no guarantee).
	MinFraction() float64
	// Name identifies the matcher in experiment output.
	Name() string
}

// Binder is implemented by Matchers that carry per-population state. The
// engine calls Bind exactly once at construction, after the population
// exists, handing the matcher a dedicated randomness stream (split from the
// engine root after the protocol, scheduler, and adversary streams, so
// binding never perturbs those). Bind typically attaches side-arrays via
// population.Attach.
type Binder interface {
	Bind(pop *population.Population, src *prng.Source)
}

// PoolSetter is implemented by Matchers that shard their matching phase (the
// spatial pipeline of spatial.go) on the engine's persistent worker pool.
// The engine calls SetPool once at construction with the pool sized to its
// resolved worker count. No pool ⇒ serial: a matcher that never receives
// one (standalone use) runs every phase inline. Like the engine's Workers
// knob, purely a throughput setting — output is bit-identical for every
// pool size and with no pool at all.
type PoolSetter interface {
	SetPool(p *pool.Pool)
}

// Space is implemented by spatial Matchers and describes their geometry to
// position-aware consumers — the adversary seam above all. The engine
// type-asserts its matcher against Space at construction and, when present,
// threads positions and metric into the adversary's View/Mutator (DESIGN.md
// §7): the paper's adversary observes the full state of the system, and on a
// spatial topology the positions are part of that state, not an
// implementation detail.
type Space interface {
	// Positions exposes the bound position side-array (nil before Bind).
	Positions() *population.Positions
	// Dist2 is the squared distance between two positions under this
	// topology's metric (wrapped, Euclidean, or circular).
	Dist2(a, b population.Point) float64
	// PatchPoint draws a position uniformly at random within distance r of
	// center under this topology's geometry, consuming src. Callers own src:
	// the adversary passes its private stream, so patch sampling never
	// perturbs the matcher's placement stream.
	PatchPoint(center population.Point, r float64, src *prng.Source) population.Point
}

// Prebucketer is implemented by Matchers whose first pipeline phase — a
// pure function of the positions — can run ahead of the sample itself. The
// engine uses it to overlap the spatial bucketing phase with the serial
// adversary staging turn (DESIGN.md §12): staging only reads positions, so
// the two are independent, and a turn that does alter the population drops
// the prebucket. Purely a throughput seam — a matcher that is never
// prebucketed produces identical output.
type Prebucketer interface {
	// PreBucket runs the bucketing phase for a population of n agents. The
	// next sample over exactly n agents reuses it; PreBucket must
	// happen-before that sample, with no position mutation in between.
	PreBucket(n int)
	// DropPrebucket discards a pending PreBucket. Call after any mutation
	// that moves, adds, or removes agents.
	DropPrebucket()
}

// PipelineStats are cumulative counters of the spatial matching pipeline,
// incremented once per sample (match and probe samples both count). Times
// are summed wall-clock nanoseconds per phase; a PreBucket overlapped with
// other work still accrues its cost to BucketNS; WalkNS is always serial
// time, since the greedy walk has no parallel path. Observability only —
// deltas between two reads divide into per-round figures (popbench's
// per-phase breakdown); nothing reads them back into the simulation.
type PipelineStats struct {
	// Samples counts pipeline runs.
	Samples uint64
	// BucketNS, ScatterNS, CandNS, and WalkNS are the summed wall-clock
	// costs of phases 1–4 (bucket, counting-sort scatter, candidate
	// selection, greedy walk).
	BucketNS, ScatterNS, CandNS, WalkNS uint64
	// SerialWalks counts greedy walks; every walk is serial, so it equals
	// Samples. SpecWalks is always 0: the speculative parallel walk it
	// counted was removed (DESIGN.md §12). It stays for readers that still
	// report the speculative share.
	SpecWalks, SerialWalks uint64
}

// ConflictRate is always 0: it was the speculative walk's repair rate, and
// that walk was removed (DESIGN.md §12). It stays for readers that still
// report it.
func (s PipelineStats) ConflictRate() float64 { return 0 }

// Sub returns the counter deltas since prev (an earlier read from the same
// matcher).
func (s PipelineStats) Sub(prev PipelineStats) PipelineStats {
	return PipelineStats{
		Samples:     s.Samples - prev.Samples,
		BucketNS:    s.BucketNS - prev.BucketNS,
		ScatterNS:   s.ScatterNS - prev.ScatterNS,
		CandNS:      s.CandNS - prev.CandNS,
		WalkNS:      s.WalkNS - prev.WalkNS,
		SpecWalks:   s.SpecWalks - prev.SpecWalks,
		SerialWalks: s.SerialWalks - prev.SerialWalks,
	}
}

// PhaseReporter is implemented by Matchers that expose per-phase pipeline
// statistics (the spatial chassis). Read from serial phases only.
type PhaseReporter interface {
	PipelineStats() PipelineStats
}

// Stateful is implemented by Matchers that carry mutable per-run state —
// the spatial chassis's placement/probe streams, sample counters, and
// position side-array. The engine's snapshot (DESIGN.md §8) captures it so
// a restored run replays placement and rewiring randomness exactly;
// stateless matchers (the scheduler adapters) simply don't implement it.
// Both methods run from serial phases only.
type Stateful interface {
	// EncodeState appends the matcher's mutable state to a snapshot.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a matcher
	// built from the same configuration and already bound to its
	// population.
	DecodeState(d *wire.Dec) error
}

// FromScheduler adapts a size-only Scheduler into a Matcher. The adaptation
// is behavior-preserving: SampleMatch(pop, …) is exactly Sample(pop.Len(), …).
func FromScheduler(s Scheduler) Matcher { return schedulerMatcher{s} }

// schedulerMatcher wraps a Scheduler; MinFraction and Name promote.
type schedulerMatcher struct{ Scheduler }

func (m schedulerMatcher) SampleMatch(pop *population.Population, src *prng.Source, p *Pairing) {
	m.Sample(pop.Len(), src, p)
}
