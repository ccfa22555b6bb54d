// Package popstab is a simulation library for the population stability
// problem of Goldwasser, Ostrovsky, Scafuro and Sealfon (PODC 2018): a
// system of Θ(log log N)-bit agents that replicate and self-destruct must
// keep its population within [(1−α)N, (1+α)N] while a full-information
// adversary inserts and deletes agents at a bounded rate.
//
// The package exposes:
//
//   - the paper's protocol (leader selection → recruitment trees →
//     variance-encoded evaluation) and its failing baselines (§1.3.1);
//   - the synchronous γ-matching communication model;
//   - a library of adversary strategies, budgeted per the model — on
//     spatial topologies the adversary observes positions and controls
//     placement (the patch family: NewPatchDeleter, NewClusterInserter,
//     NewRewireDenier, RogueConfig.Cluster);
//   - the §1.2 extensions (malicious programs, geometric communication,
//     clock drift), composable with each other and with any adversary
//     through Config.Topology and Config.Rogue;
//   - the reproduction experiment suite (E1–E17, A1–A9);
//   - one deterministic parallel round engine behind pluggable
//     communication (Matcher) and program (Stepper) seams: per-agent
//     counter-based randomness makes simulation output bit-identical
//     across any Config.Workers count, so multi-core runs are pure
//     speedup — for every topology and program;
//   - steppable Sessions with deterministic snapshot/resume (Session,
//     Snapshot, RestoreSession) and the declarative, canonically hashable
//     Spec the serving layer (internal/serve, cmd/popserve) builds on:
//     a snapshot restored in another process continues bit-identically.
//
// Quick start:
//
//	cfg := popstab.Config{N: 4096, Seed: 1}
//	s, err := popstab.New(cfg)
//	if err != nil { ... }
//	for i := 0; i < 10; i++ {
//		rep := s.RunEpoch()
//		fmt.Println(rep.Epoch, rep.EndSize)
//	}
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for measured-vs-paper
// results.
package popstab

import (
	"fmt"
	"math"

	"popstab/internal/adversary"
	"popstab/internal/baseline"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/protocol"
	"popstab/internal/rogue"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

// Re-exported model types. These aliases make the internal packages' types
// part of the stable public surface without duplicating them.
type (
	// Params is the derived protocol parameterization (N, epoch shape,
	// coin biases, γ, α).
	Params = params.Params
	// Adversary is an attack strategy; see the New*Adversary constructors.
	Adversary = adversary.Adversary
	// Scheduler samples each round's communication matching.
	Scheduler = match.Scheduler
	// RoundReport summarizes one completed round.
	RoundReport = sim.RoundReport
	// EpochReport aggregates one protocol epoch.
	EpochReport = sim.EpochReport
	// Census is an aggregate snapshot of the population.
	Census = population.Census
	// Counters accumulates protocol event counts (leaders, recruits,
	// splits, deaths).
	Counters = protocol.Counters
	// RogueStats accumulates the malicious-program extension's event counts
	// (kills, rogue splits, failed detections).
	RogueStats = rogue.Stats
	// Point is a position on a spatial topology (only X is meaningful on
	// the 1-D topologies Ring and SmallWorld).
	Point = population.Point
	// MatchPipelineStats are the spatial matching pipeline's cumulative
	// per-phase counters (see Sim.MatchStats).
	MatchPipelineStats = match.PipelineStats
	// RoundStats are the engine's cumulative per-phase cost counters —
	// every round phase, not just the matching pipeline (see
	// Sim.RoundStats and DESIGN.md §13).
	RoundStats = sim.RoundStats
	// PhaseCost is one named phase's cumulative wall-clock cost within a
	// RoundStats.
	PhaseCost = sim.PhaseCost
)

// PatchSpec parameterizes the spatial patch-attack family: one ball of the
// topology — a disc on Torus/Grid, an arc of half-length Radius on
// Ring/SmallWorld. It drives the patch strategies (NewPatchDeleter,
// NewClusterInserter, NewRewireDenier) and clustered rogue infiltration
// (RogueConfig.Cluster).
type PatchSpec struct {
	// Center is the ball's center.
	Center Point
	// Radius is the ball's radius (arc half-length in 1-D).
	Radius float64
}

// ProtocolKind selects which per-agent program a Sim runs.
type ProtocolKind int

// Supported protocols.
const (
	// Paper is the population stability protocol (Algorithms 1–7); the
	// default.
	Paper ProtocolKind = iota
	// Attempt1 is the non-interactive leader election baseline (§1.3.1).
	Attempt1
	// Attempt2 is the independent coloring baseline (§1.3.1).
	Attempt2
	// Empty is the do-nothing protocol.
	Empty
)

// String names the protocol kind.
func (k ProtocolKind) String() string {
	switch k {
	case Paper:
		return "paper"
	case Attempt1:
		return "attempt1"
	case Attempt2:
		return "attempt2"
	case Empty:
		return "empty"
	default:
		return fmt.Sprintf("protocol(%d)", int(k))
	}
}

// ProtocolKindFromString parses a protocol name.
func ProtocolKindFromString(s string) (ProtocolKind, error) {
	switch s {
	case "paper", "":
		return Paper, nil
	case "attempt1":
		return Attempt1, nil
	case "attempt2":
		return Attempt2, nil
	case "empty":
		return Empty, nil
	default:
		return 0, fmt.Errorf("popstab: unknown protocol %q", s)
	}
}

// Topology selects the communication topology the matching is drawn from.
// It composes freely with Protocol, Adversary, and Rogue: the unified round
// engine treats topology, program, and intervention as orthogonal axes.
type Topology int

// Supported topologies, in decreasing order of mixing (increasing order of
// locality). All spatial topologies run on the same sharded matching
// pipeline and position side-array machinery (internal/match).
const (
	// Mixed is the model's well-mixed uniform γ-matching (the default).
	Mixed Topology = iota
	// Torus places agents on the unit 2-torus and matches nearest
	// neighbors; daughters appear next to their parent (§1.2 "Alternate
	// communication models", experiments A5/A7/A8).
	Torus
	// Grid is the bounded planar analogue of Torus: the unit square under
	// the Euclidean metric, with boundary effects instead of wraparound.
	Grid
	// Ring places agents on the unit circle (1-D) and matches nearest
	// neighbors — the strongest-locality topology in the gallery.
	Ring
	// SmallWorld is Ring with Watts-Strogatz rewiring: each agent's
	// candidate set is rewired to uniformly random agents with probability
	// Config.RewireProb each round, interpolating between Ring (0) and
	// near-well-mixed contact (1).
	SmallWorld
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Mixed:
		return "mixed"
	case Torus:
		return "torus"
	case Grid:
		return "grid"
	case Ring:
		return "ring"
	case SmallWorld:
		return "smallworld"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// TopologyFromString parses a topology name.
func TopologyFromString(s string) (Topology, error) {
	switch s {
	case "mixed", "":
		return Mixed, nil
	case "torus":
		return Torus, nil
	case "grid":
		return Grid, nil
	case "ring":
		return Ring, nil
	case "smallworld":
		return SmallWorld, nil
	default:
		return 0, fmt.Errorf("popstab: unknown topology %q", s)
	}
}

// Topologies lists every supported topology in declaration order (the
// gallery sweep order of experiment A8 and the CLI help text).
func Topologies() []Topology {
	return []Topology{Mixed, Torus, Grid, Ring, SmallWorld}
}

// RogueConfig enables the §1.2 malicious-program extension: rogue agents
// that ignore the protocol and replicate at a bounded rate, with honest
// agents detecting and removing foreign programs on contact.
type RogueConfig struct {
	// ReplicateEvery is the rogue replication period R ≥ 1.
	ReplicateEvery int
	// DetectProb is the per-contact detection probability (the paper
	// assumes 1).
	DetectProb float64
	// InitialRogues seeds the system with this many rogues.
	InitialRogues int
	// RoguesPerEpoch inserts this many additional rogues at every epoch
	// boundary.
	RoguesPerEpoch int
	// Cluster, when non-nil, places every rogue insertion (initial cohort
	// and per-epoch infiltration) inside the given patch instead of at
	// oblivious uniform positions — adversary-chosen placement, the A9
	// patch-attack seeding. Requires a spatial Topology.
	Cluster *PatchSpec
}

// Config assembles a simulation.
type Config struct {
	// N is the population target. Must be a power of four, ≥ 4096.
	N int
	// Tinner overrides the recruitment subphase length (0 = the paper's
	// log²N). Must be ω(log N); see Params.
	Tinner int
	// Gamma is the matched fraction per round (0 = the paper's running
	// example 1/4).
	Gamma float64
	// Alpha is the admissible interval half-width (0 = 0.5).
	Alpha float64
	// Protocol selects the per-agent program (default Paper).
	Protocol ProtocolKind
	// Selfish wraps the selected protocol in the selfish-replicator
	// variant: activated agents ignore the protocol's verdict and split at
	// every opportunity (sim.SelfishReplicator). A negative control for
	// the stability results — the population escapes the admissible
	// interval without any adversary budget.
	Selfish bool
	// MessageBits selects the wire codec for the paper protocol: 3
	// (default, Theorem 2's encoding) or 4 (the reference encoding).
	MessageBits int
	// Adversary attacks every round within budget K (nil = none).
	Adversary Adversary
	// K is the adversary's per-round alteration budget.
	K int
	// PerEpochBudget, when positive, paces the adversary so it spends
	// roughly this many alterations per epoch (with K per action); this is
	// the budget normalization the paper's lemmas use (K·T = Θ(N^{1/4})).
	PerEpochBudget int
	// Scheduler overrides the communication scheduler (nil = uniform
	// γ-matching). Incompatible with Topology: Torus.
	Scheduler Scheduler
	// Topology selects the communication topology (default Mixed). Every
	// topology composes with any Protocol, Adversary, and Rogue
	// configuration.
	Topology Topology
	// DaughterSpread is the daughter-placement spread as a fraction of the
	// mean inter-agent spacing — 1/√N on the 2-D topologies (Torus, Grid),
	// 1/N on the 1-D ones (Ring, SmallWorld). 0 = 1.0; spatial topologies
	// only.
	DaughterSpread float64
	// RewireProb is the Watts-Strogatz rewiring probability β in [0, 1]
	// (0 = 0.1; SmallWorld only).
	RewireProb float64
	// Rogue, when non-nil, runs the malicious-program extension on top of
	// the selected protocol and topology.
	Rogue *RogueConfig
	// InitialSize overrides the starting population (0 = N).
	InitialSize int
	// Seed derives all randomness; runs are fully deterministic in it.
	Seed uint64
	// Workers sets the number of goroutines sharding the engine's per-agent
	// compose/step phases: 0 means runtime.NumCPU(), 1 forces the serial
	// path. Simulation output is bit-identical across all worker counts
	// (per-agent randomness is counter-based, keyed on round and agent
	// slot), so Workers is purely a throughput knob.
	Workers int
}

// Sim is one deterministic simulation run.
type Sim struct {
	eng      *sim.Engine
	proto    *protocol.Protocol // nil for baselines
	overlay  *rogue.Overlay     // nil without the malicious-program extension
	params   Params
	kind     ProtocolKind
	epochLen int
}

// New validates cfg and builds the simulation.
func New(cfg Config) (*Sim, error) {
	var opts []params.Option
	if cfg.Tinner > 0 {
		opts = append(opts, params.WithTinner(cfg.Tinner))
	}
	if cfg.Gamma > 0 {
		opts = append(opts, params.WithGamma(cfg.Gamma))
	}
	if cfg.Alpha > 0 {
		opts = append(opts, params.WithAlpha(cfg.Alpha))
	}
	p, err := params.Derive(cfg.N, opts...)
	if err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}

	s := &Sim{params: p, kind: cfg.Protocol}
	var stepper sim.Stepper
	switch cfg.Protocol {
	case Paper:
		var popts []protocol.Option
		switch cfg.MessageBits {
		case 0, 3:
		case 4:
			popts = append(popts, protocol.WithCodec(wire.FourBit{}))
		default:
			return nil, fmt.Errorf("popstab: unsupported message size %d bits", cfg.MessageBits)
		}
		pr, err := protocol.New(p, popts...)
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		s.proto = pr
		stepper = pr
	case Attempt1:
		a, err := baseline.NewAttempt1(p)
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		stepper = a
	case Attempt2:
		a, err := baseline.NewAttempt2(p)
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		stepper = a
	case Empty:
		stepper = baseline.Empty{}
	default:
		return nil, fmt.Errorf("popstab: unknown protocol kind %d", int(cfg.Protocol))
	}

	if cfg.Selfish {
		stepper = sim.NewSelfishReplicator(stepper)
	}
	s.epochLen = stepper.EpochLen()

	adv := cfg.Adversary
	k := cfg.K
	if adv != nil && cfg.PerEpochBudget > 0 {
		if k <= 0 {
			k = 1
		}
		adv = adversary.NewPaced(adversary.PerEpoch(s.epochLen, cfg.PerEpochBudget, k), adv)
	}

	simCfg := sim.Config{
		Params:      p,
		Scheduler:   cfg.Scheduler,
		Adversary:   adv,
		K:           k,
		Seed:        cfg.Seed,
		InitialSize: cfg.InitialSize,
		Workers:     cfg.Workers,
	}

	// Topology axis: the spatial topologies swap the uniform scheduler for
	// a nearest-available matcher riding a position side-array; all share
	// the sharded matching pipeline and inherit Workers.
	if cfg.Topology == Mixed {
		if cfg.DaughterSpread != 0 {
			return nil, fmt.Errorf("popstab: DaughterSpread requires a spatial topology")
		}
		if cfg.RewireProb != 0 {
			return nil, fmt.Errorf("popstab: RewireProb requires Topology: SmallWorld")
		}
	} else {
		if cfg.Scheduler != nil {
			return nil, fmt.Errorf("popstab: Scheduler is incompatible with spatial topologies")
		}
		if cfg.RewireProb != 0 && cfg.Topology != SmallWorld {
			return nil, fmt.Errorf("popstab: RewireProb requires Topology: SmallWorld")
		}
		spread := cfg.DaughterSpread
		if spread == 0 {
			spread = 1
		}
		if spread < 0 {
			return nil, fmt.Errorf("popstab: negative DaughterSpread %v", spread)
		}
		// Daughter spread in units of the mean inter-agent spacing: 1/√N
		// on the 2-D topologies, 1/N on the 1-D ones.
		sigma2 := spread / math.Sqrt(float64(p.N))
		sigma1 := spread / float64(p.N)
		var (
			matcher match.Matcher
			err     error
		)
		switch cfg.Topology {
		case Torus:
			matcher, err = match.NewTorus(sigma2)
		case Grid:
			matcher, err = match.NewGrid(sigma2)
		case Ring:
			matcher, err = match.NewRing(sigma1)
		case SmallWorld:
			beta := cfg.RewireProb
			if beta == 0 {
				beta = 0.1
			}
			matcher, err = match.NewSmallWorld(sigma1, beta)
		default:
			return nil, fmt.Errorf("popstab: unknown topology %d", int(cfg.Topology))
		}
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		simCfg.Matcher = matcher
		simCfg.Scheduler = nil
	}

	// Program axis: the malicious-program extension wraps any protocol (and
	// composes with any topology and adversary) — all wiring delegated to
	// rogue.NewEngine so the overlay bootstrap lives in one place.
	if rc := cfg.Rogue; rc != nil {
		var cluster *rogue.ClusterSpec
		if rc.Cluster != nil {
			if cfg.Topology == Mixed {
				return nil, fmt.Errorf("popstab: RogueConfig.Cluster requires a spatial topology")
			}
			cluster = &rogue.ClusterSpec{Center: rc.Cluster.Center, Radius: rc.Cluster.Radius}
		}
		re, err := rogue.NewEngine(rogue.Config{
			Params:         p,
			ReplicateEvery: rc.ReplicateEvery,
			DetectProb:     rc.DetectProb,
			InitialRogues:  rc.InitialRogues,
			RoguesPerEpoch: rc.RoguesPerEpoch,
			Cluster:        cluster,
			Scheduler:      simCfg.Scheduler,
			Matcher:        simCfg.Matcher,
			Adversary:      adv,
			K:              k,
			Seed:           cfg.Seed,
			InitialSize:    cfg.InitialSize,
			Workers:        cfg.Workers,
		}, stepper)
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		s.eng = re.Engine
		s.overlay = re.Overlay()
		return s, nil
	}
	simCfg.Protocol = stepper
	eng, err := sim.New(simCfg)
	if err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}
	s.eng = eng
	return s, nil
}

// Params reports the derived parameterization.
func (s *Sim) Params() Params { return s.params }

// Kind reports which protocol the simulation runs.
func (s *Sim) Kind() ProtocolKind { return s.kind }

// Size reports the current population size.
func (s *Sim) Size() int { return s.eng.Size() }

// GlobalRound reports the number of completed rounds.
func (s *Sim) GlobalRound() uint64 { return s.eng.GlobalRound() }

// EpochLen reports the running protocol's epoch length in rounds, cached at
// construction.
func (s *Sim) EpochLen() int { return s.epochLen }

// RunRound executes one round.
func (s *Sim) RunRound() RoundReport { return s.eng.RunRound() }

// RunRounds executes n rounds, returning the final report.
func (s *Sim) RunRounds(n int) RoundReport { return s.eng.RunRounds(n) }

// RunEpoch executes rounds up to the next epoch boundary.
func (s *Sim) RunEpoch() EpochReport { return s.eng.RunEpoch() }

// RunEpochs executes n epochs and returns their reports.
func (s *Sim) RunEpochs(n int) []EpochReport { return s.eng.RunEpochs(n) }

// Census snapshots the population's aggregate state.
func (s *Sim) Census() Census { return s.eng.Census() }

// Close releases the engine's parked worker-pool goroutines. The simulation
// stays usable afterwards (sharded phases run inline); idempotent. Callers
// that hold many simulations concurrently — the job server hibernating or
// garbage-collecting sessions — close eagerly so goroutine count tracks
// live work; everyone else may simply drop the Sim (a runtime cleanup
// covers it).
func (s *Sim) Close() { s.eng.Close() }

// MatchStats reports the spatial matcher's cumulative per-phase pipeline
// counters: sample count, bucket/scatter/candidate/walk times, and walk
// counts (every walk is serial, so SerialWalks equals Samples and the
// speculative fields stay 0). ok is false for communication models without
// a phase pipeline (the well-mixed scheduler). Observability only —
// popbench's per-phase throughput breakdown reads it; nothing feeds back
// into the simulation.
func (s *Sim) MatchStats() (stats MatchPipelineStats, ok bool) {
	if sp, isSpatial := s.eng.Matcher().(match.Spatial); isSpatial {
		return sp.PipelineStats(), true
	}
	return MatchPipelineStats{}, false
}

// RoundStats reports the engine's cumulative per-phase cost counters
// (adversary, compose, match, step, kill-fold, apply, snapshot — plus
// per-round allocation and population deltas). Observability only, for
// every matcher and program: the counters never feed back into the
// simulation and are excluded from snapshots. popsim's -stats flag and the
// serve layer's phase histograms read them.
func (s *Sim) RoundStats() RoundStats { return s.eng.RoundStats() }

// Counters exposes the paper protocol's event counters (nil for baselines).
func (s *Sim) Counters() *Counters {
	if s.proto == nil {
		return nil
	}
	return s.proto.Counters()
}

// Displace forcibly resizes the population to n agents (experimental
// machinery for drift/recovery studies; not part of the model).
func (s *Sim) Displace(n int) { s.eng.ForceResize(n) }

// RogueCounts reports the honest and rogue populations (0, Size() without
// the extension).
func (s *Sim) RogueCounts() (honest, rogues int) {
	if s.overlay == nil {
		return s.Size(), 0
	}
	return s.overlay.Counts()
}

// RogueStats returns the malicious-program extension's counters (zero
// without the extension).
func (s *Sim) RogueStats() RogueStats {
	if s.overlay == nil {
		return RogueStats{}
	}
	return s.overlay.Stats()
}

// InInterval reports whether the population currently lies within
// [(1−α)N, (1+α)N]. The bounds are the integers inside the closed real
// interval: the lower bound rounds up and the upper bound rounds down, so a
// population of exactly (1−α)N or (1+α)N is admissible and nothing closer
// to the boundary is misclassified.
func (s *Sim) InInterval() bool {
	lo := int(math.Ceil(float64(s.params.N) * (1 - s.params.Alpha)))
	hi := int(math.Floor(float64(s.params.N) * (1 + s.params.Alpha)))
	return s.Size() >= lo && s.Size() <= hi
}
