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

// Spatial is the one optional seam of a Matcher, implemented by the
// spatial matchers (Torus, Grid, Ring, SmallWorld — all built on the
// chassis of spatial.go). The engine type-asserts its matcher against
// Spatial once, at construction, and reaches every spatial facility through
// it: binding, geometry, the prebucket overlap, pipeline statistics, and
// snapshot state. A plain scheduler adapter (FromScheduler) implements none
// of it and needs none of it.
type Spatial interface {
	Matcher

	// Bind attaches the matcher to its population, exactly once, before
	// the first SampleMatch: it registers the position side-array via
	// population.Attach, keeps src (a dedicated stream the engine splits
	// from its root after the protocol, scheduler, and adversary streams,
	// so binding never perturbs those) for placement, and runs the sharded
	// pipeline phases on pool. A nil pool runs every phase inline; like
	// the engine's Workers knob, the pool is purely a throughput setting —
	// output is bit-identical for every pool size and with none.
	Bind(pop *population.Population, src *prng.Source, pool *pool.Pool)

	// Positions exposes the bound position side-array (nil before Bind).
	// With Dist2 and PatchPoint it describes the geometry to the
	// adversary seam (DESIGN.md §7): the paper's adversary observes the
	// full state of the system, and on a spatial topology the positions
	// are part of that state.
	Positions() *population.Positions
	// Dist2 is the squared distance between two positions under this
	// topology's metric (wrapped, Euclidean, or circular).
	Dist2(a, b population.Point) float64
	// PatchPoint draws a position uniformly at random within distance r of
	// center under this topology's geometry, consuming src. Callers own
	// src: the adversary passes its private stream, so patch sampling
	// never perturbs the matcher's placement stream.
	PatchPoint(center population.Point, r float64, src *prng.Source) population.Point

	// PreBucket runs the bucketing phase — a pure function of the
	// positions — for a population of n agents ahead of the sample; the
	// engine overlaps it with the serial adversary staging turn (DESIGN.md
	// §12). The next sample over exactly n agents reuses it; PreBucket
	// must happen-before that sample, with no position mutation in
	// between. A matcher never prebucketed produces identical output.
	PreBucket(n int)
	// DropPrebucket discards a pending PreBucket. Call after any mutation
	// that moves, adds, or removes agents.
	DropPrebucket()

	// PipelineStats reports the cumulative per-phase pipeline counters.
	// Read from serial phases only.
	PipelineStats() PipelineStats

	// EncodeState appends the matcher's mutable per-run state — placement
	// and probe streams, sample counters, position side-array — to a
	// snapshot (DESIGN.md §8), so a restored run replays placement and
	// rewiring randomness exactly. Serial phases only.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a matcher
	// built from the same configuration and already bound to its
	// population. Serial phases only.
	DecodeState(d *wire.Dec) error
}

var (
	_ Spatial = (*Torus)(nil)
	_ Spatial = (*Grid)(nil)
	_ Spatial = (*Ring)(nil)
	_ Spatial = (*SmallWorld)(nil)
)

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

// FromScheduler adapts a size-only Scheduler into a Matcher. The adaptation
// is behavior-preserving: SampleMatch(pop, …) is exactly Sample(pop.Len(), …).
func FromScheduler(s Scheduler) Matcher { return schedulerMatcher{s} }

// schedulerMatcher wraps a Scheduler; MinFraction and Name promote.
type schedulerMatcher struct{ Scheduler }

func (m schedulerMatcher) SampleMatch(pop *population.Population, src *prng.Source, p *Pairing) {
	m.Sample(pop.Len(), src, p)
}
