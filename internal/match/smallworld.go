package match

import (
	"fmt"
	"math"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// SmallWorld is the Watts-Strogatz topology of the gallery: the Ring
// substrate with a rewiring parameter β. Each round, each agent's
// candidate set is independently rewired with probability β — instead of
// its nearest ring neighbors it proposes to uniformly random agents — so β
// interpolates between pure 1-D locality (β = 0, exactly Ring's geometry)
// and well-mixed-like long-range contact (β = 1). This is the per-round
// analogue of Watts-Strogatz edge rewiring, adapted to a population whose
// membership changes every round: rewiring a static lattice would not
// survive insertions and swap-deletes, so the coin is re-flipped each
// round from a per-agent counter-based stream.
//
// Determinism: rewiring coins come from prng counter streams keyed on
// (matcher key, sample counter, agent index) — pure functions of the seed,
// never of shard boundaries — so the sharded candidate phase stays
// bit-identical across worker counts, and probe samples (which use a
// distinct counter plane) cannot perturb the simulation trajectory.
//
// A rewired agent whose random candidates are all already matched when it
// is visited stays unmatched that round (it does not fall back to its ring
// neighborhood); with candK independent draws the miss probability is
// negligible until the round is nearly fully matched.
//
// The long-range link assignment is itself adversary-visible state: a
// RewireController installed with SetRewireController can force or deny
// individual agents' rewiring (adversarial rewiring — the adversary chooses
// which agents get long-range links). Directives are consulted before the β
// coin, per agent, from the sharded candidate phase.
type SmallWorld struct {
	// Sigma is the standard deviation of a daughter's offset from its
	// parent on the ring, in circle units.
	Sigma float64
	// Beta is the per-agent per-round rewiring probability in [0, 1].
	Beta float64

	spatial[ringGeom]

	// key identifies this matcher's rewiring counter streams, drawn from
	// the bind stream.
	key uint64
	// ctl is the adversary's rewiring override (nil = pure β coin).
	ctl RewireController
	// targets is the per-sample list of agents inside the controller's ball,
	// rebuilt serially by the prematch hook (ascending index order) and
	// read concurrently — but never written — by the sharded candidate
	// phase.
	targets []int32
}

// RewireMode is a per-agent rewiring directive from a RewireController.
type RewireMode uint8

// Rewiring directives.
const (
	// RewireDefault leaves the agent on the β coin.
	RewireDefault RewireMode = iota
	// RewireForce rewires the agent unconditionally this round.
	RewireForce
	// RewireDeny pins the agent to its ring neighborhood this round.
	RewireDeny
)

// RewireController lets an adversary own the long-range link assignment of a
// SmallWorld round: Mode is consulted for every agent before the β coin,
// with the agent's current position (valid at matching time regardless of
// how insertions and swap-deletions reshuffled indices since the adversary's
// turn).
//
// The controller may also aim the links it forces: when RewireTarget
// reports a ball, every agent forced to rewire (RewireForce only — a
// successful β coin under RewireDefault is NOT affected) draws its
// long-range candidates uniformly from the agents currently inside the
// ball instead of from the whole population: the adversary drags links
// INTO a patch, coupling the population to the patch residents. An empty
// ball falls back to uniform long-range draws.
//
// Concurrency/determinism contract: Mode is called concurrently from the
// sharded candidate phase and must be a pure read — any state it consults
// must be written only in the serial phases of the round (the adversary's
// turn precedes the matching), and its answer must depend only on (i, pt)
// and that state, never on shard boundaries or call order. RewireTarget is
// consulted once per sample, serially, before the sharded phases; it too
// must be a pure read of serially-written state.
type RewireController interface {
	Mode(i int, pt population.Point) RewireMode
	// RewireTarget reports the target ball; ok false disables targeting.
	RewireTarget() (center population.Point, r float64, ok bool)
}

// SetRewireController installs (or, with nil, removes) the adversary's
// rewiring override. Serial phases only.
func (m *SmallWorld) SetRewireController(c RewireController) { m.ctl = c }

// buildTargets is the prematch hook: when the controller reports a ball, it
// collects the agents inside it in ascending index order. Running serially
// before the sharded candidate phase makes the list identical for every
// worker count, so forced-candidate draws stay worker-invariant.
func (m *SmallWorld) buildTargets(n int) {
	m.targets = m.targets[:0]
	if m.ctl == nil {
		return
	}
	center, r, ok := m.ctl.RewireTarget()
	if !ok || r < 0 {
		return
	}
	r2 := r * r
	for i, pt := range m.pos.Slice() {
		if m.geo.dist2(center, pt) <= r2 {
			m.targets = append(m.targets, int32(i))
		}
	}
}

// NewSmallWorld validates sigma and beta and returns an unbound SmallWorld
// matcher.
func NewSmallWorld(sigma, beta float64) (*SmallWorld, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("match: smallworld sigma %v not positive and finite", sigma)
	}
	if beta < 0 || beta > 1 || math.IsNaN(beta) {
		return nil, fmt.Errorf("match: smallworld beta %v outside [0, 1]", beta)
	}
	return &SmallWorld{Sigma: sigma, Beta: beta}, nil
}

// Bind implements Spatial: ring placement (uniform on the circle, daughters
// 1-D Gaussian around their parent) plus the rewiring key draw.
func (m *SmallWorld) Bind(pop *population.Population, src *prng.Source, pl *pool.Pool) {
	m.key = src.Uint64()
	m.bind(pop, src, pl,
		func() population.Point {
			return population.Point{X: src.Float64()}
		},
		m.daughter)
	m.rewrite = m.rewireCandidates
	m.prematch = m.buildTargets
}

// MinFraction reports 0: no hard per-round coverage guarantee.
func (m *SmallWorld) MinFraction() float64 { return 0 }

// Name reports "smallworld(σ,β)".
func (m *SmallWorld) Name() string {
	return fmt.Sprintf("smallworld(%.3g,%.2f)", m.Sigma, m.Beta)
}

// daughter places a daughter near its parent on the circle.
func (m *SmallWorld) daughter(parent population.Point) population.Point {
	dx, _ := gaussianOffset(m.src, m.Sigma)
	return population.Point{X: wrap(parent.X + dx)}
}

// rewireCandidates is the spatial pipeline's rewrite hook: with probability
// Beta it replaces agent i's candidate list with len(dst) uniform draws
// from the other agents, reporting how many it wrote; otherwise it returns
// -1 and the geometric (ring) candidates stand. A RewireController's
// directive overrides the β coin (the coin is then not drawn; candidate
// draws still come from the same per-agent counter stream, so the outcome
// stays a pure function of (i, call) and the serially-written controller
// state). It runs concurrently from shards: all randomness comes from the
// (key, call, i) counter stream.
func (m *SmallWorld) rewireCandidates(i, n int, call uint64, dst []int32) int {
	src := prng.AtCounter(m.key, call, uint64(i))
	mode := RewireDefault
	if m.ctl != nil {
		mode = m.ctl.Mode(i, m.pos.At(i))
	}
	switch mode {
	case RewireDeny:
		return -1
	case RewireForce:
		// A forced agent with an installed target ball draws its
		// candidates from the agents inside it (built serially by the
		// prematch hook). The ball may contain the agent itself; a
		// self-draw deterministically takes the next list entry, and a
		// ball holding only this agent leaves it candidate-less
		// (unmatched this round).
		if tl := m.targets; len(tl) > 0 {
			for k := range dst {
				t := src.Intn(len(tl))
				if int(tl[t]) == i {
					if len(tl) == 1 {
						return 0
					}
					t = (t + 1) % len(tl)
				}
				dst[k] = tl[t]
			}
			return len(dst)
		}
	default:
		if !src.Prob(m.Beta) {
			return -1
		}
	}
	for k := range dst {
		j := src.Intn(n - 1)
		if j >= i {
			j++ // uniform over [0, n) \ {i}
		}
		dst[k] = int32(j)
	}
	return len(dst)
}
