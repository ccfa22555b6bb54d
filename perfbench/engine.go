package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"popstab"
	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

const (
	// setupReps is how many times a run builds and warms its engine; setup_s
	// is the median.
	setupReps = 9
	// warmupRounds fill the engine's scratch buffers and start its worker
	// pool before anything is timed.
	warmupRounds = 8
	// snapshotReps and restoreReps time the wire layer after the window.
	snapshotReps = 101
	restoreReps  = 51
	// checkRounds are stepped after restoring at both worker counts, before
	// their snapshots are compared.
	checkRounds = 12
	// minSamples keeps a tail percentile meaningful: p90 needs at least ten
	// samples beyond it. Windows run on past --seconds until they have it.
	minSamples = 100
)

// engineWorkload is one engine-level workload: how to build its engine
// from the seed, fresh or from a snapshot.
type engineWorkload struct {
	n        int
	epochLen int
	// open builds the engine at the given worker count; with snap it
	// restores that snapshot instead of starting fresh.
	open func(seed uint64, workers int, snap []byte) (*engineRun, error)
	// attacked workloads must see the adversary act inside the window.
	attacked bool
	describe func(seed uint64) string
}

// engineRun is one live engine, seen through the calls the benchmark makes.
type engineRun struct {
	runRound   func() sim.RoundReport
	round      func() uint64
	size       func() int
	roundStats func() sim.RoundStats
	pipeline   func() (match.PipelineStats, bool)
	counters   func() protocol.Counters
	snapshot   func() []byte
	close      func()
}

// lemma3Budget is the per-epoch adversary budget the workloads pace to:
// N^{1/4}/8 alterations, at least one.
func lemma3Budget(n int) int {
	p, err := params.Derive(n)
	if err != nil {
		return 1
	}
	return max(1, p.MaxTolerableK()/8)
}

// log2 is log₂ n for a power of two.
func log2(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg
}

// mixedSpec is the paper's model: well-mixed γ = 1/4, greedy adversary at
// K = 1 paced to the Lemma-3 budget.
func mixedSpec(seed uint64, workers int) popstab.Spec {
	n := 1 << 18
	return popstab.Spec{
		N: n, Tinner: 2 * log2(n),
		Adversary: "greedy", K: 1, PerEpochBudget: lemma3Budget(n),
		Seed: seed, Workers: workers,
	}
}

// torusSpec is the paper protocol on the torus under the combined patch
// attack.
func torusSpec(seed uint64, workers int) popstab.Spec {
	n := 1 << 16
	return popstab.Spec{
		N: n, Tinner: 2 * log2(n), Topology: "torus",
		Adversary: "patch-combo", Patch: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.05},
		K: 1, PerEpochBudget: lemma3Budget(n),
		Seed: seed, Workers: workers,
	}
}

// sessionWorkload wraps a Spec-built paper-protocol workload.
func sessionWorkload(spec func(seed uint64, workers int) popstab.Spec) engineWorkload {
	probe := spec(0, 1)
	p, err := params.Derive(probe.N, params.WithTinner(probe.Tinner))
	if err != nil {
		panic(err) // the specs above are constants
	}
	return engineWorkload{
		n:        probe.N,
		epochLen: p.T,
		attacked: true,
		open: func(seed uint64, workers int, snap []byte) (*engineRun, error) {
			sp := spec(seed, workers)
			var (
				s   *popstab.Session
				err error
			)
			if snap == nil {
				s, err = popstab.NewSessionFromSpec(sp)
			} else {
				s, err = popstab.RestoreSessionFromSpec(sp, snap)
			}
			if err != nil {
				return nil, err
			}
			sm := s.Sim()
			return &engineRun{
				runRound:   sm.RunRound,
				round:      sm.GlobalRound,
				size:       sm.Size,
				roundStats: sm.RoundStats,
				pipeline:   sm.MatchStats,
				counters:   func() protocol.Counters { return *sm.Counters() },
				snapshot:   s.Snapshot,
				close:      s.Close,
			}, nil
		},
		describe: func(seed uint64) string {
			sp := spec(seed, 0)
			return fmt.Sprintf("N=%d Tinner=%d T=%d topology=%s adversary=%s K=%d per_epoch_budget=%d seed=%d",
				sp.N, sp.Tinner, p.T, orMixed(sp.Topology), sp.Adversary, sp.K, sp.PerEpochBudget, sp.Seed)
		},
	}
}

func orMixed(t string) string {
	if t == "" {
		return "mixed"
	}
	return t
}

// churnStepper is a synthetic apply-heavy program: every round each agent
// dies or splits with probability about 1/4 each, so about half the
// population turns over per round. With exactly 1/4 each the process is
// critical and its size random-walks, by several percent of N over one
// run, so a round's cost would depend on the seed. Instead begin, called
// with the size before each round, leans the two chances against the
// size's distance from target (their sum stays 1/2), which holds the size
// within about 1% of target.
type churnStepper struct {
	target int
	die    uint64 // an agent dies when its draw mod churnScale is below die
}

// churnScale is the resolution of the death and split chances.
const churnScale = 1 << 12

func (c *churnStepper) begin(size int) {
	lean := churnScale / 4 * (size - c.target) / c.target
	lean = max(-churnScale/8, min(churnScale/8, lean))
	c.die = uint64(churnScale/4 + lean)
}

func (*churnStepper) EpochLen() int              { return 1 }
func (*churnStepper) Compose(*agent.State) uint8 { return 0 }
func (*churnStepper) Decode(uint8) wire.Message  { return wire.Message{} }
func (c *churnStepper) Step(_ *agent.State, _ wire.Message, _ bool, src *prng.Source) population.Action {
	switch r := src.Uint64() % churnScale; {
	case r < c.die:
		return population.ActDie
	case r < churnScale/2:
		return population.ActSplit
	default:
		return population.ActKeep
	}
}

// churnWorkload runs churnStepper on the torus: the spatial matcher under
// write-heavy traffic.
func churnWorkload() engineWorkload {
	n := 1 << 16
	return engineWorkload{
		n:        n,
		epochLen: 1,
		open: func(seed uint64, workers int, snap []byte) (*engineRun, error) {
			p, err := params.Derive(n, params.WithTinner(2*log2(n)))
			if err != nil {
				return nil, err
			}
			tor, err := match.NewTorus(1 / math.Sqrt(float64(n)))
			if err != nil {
				return nil, err
			}
			st := &churnStepper{target: n}
			eng, err := sim.New(sim.Config{Params: p, Protocol: st, Matcher: tor, Seed: seed, Workers: workers})
			if err != nil {
				return nil, err
			}
			if snap != nil {
				if err := eng.Restore(snap); err != nil {
					eng.Close()
					return nil, err
				}
			}
			return &engineRun{
				runRound: func() sim.RoundReport {
					st.begin(eng.Size())
					return eng.RunRound()
				},
				round:      eng.GlobalRound,
				size:       eng.Size,
				roundStats: eng.RoundStats,
				pipeline: func() (match.PipelineStats, bool) {
					return tor.PipelineStats(), true
				},
				counters: func() protocol.Counters { return protocol.Counters{} },
				snapshot: eng.Snapshot,
				close:    eng.Close,
			}, nil
		},
		describe: func(seed uint64) string {
			return fmt.Sprintf("N=%d program=churn(die, split 1/4 each, leaning to hold N) topology=torus seed=%d", n, seed)
		},
	}
}

// engineWorkloads are the three engine-level workloads by name.
var engineWorkloads = map[string]engineWorkload{
	"mixed-attack": sessionWorkload(mixedSpec),
	"torus-attack": sessionWorkload(torusSpec),
	"torus-churn":  churnWorkload(),
}

// bounds is the admissible interval [(1−α)N, (1+α)N] with α = 1/2 (every
// workload uses the default α).
func bounds(n int) (lo, hi int) {
	const alpha = 0.5
	return int(math.Ceil(float64(n) * (1 - alpha))), int(math.Floor(float64(n) * (1 + alpha)))
}

// runEngine runs one engine workload.
func runEngine(cfg runConfig, res *result) error {
	w := engineWorkloads[cfg.workload]
	fmt.Printf("# workload %s %s workers=%d\n", cfg.workload, w.describe(cfg.seed), cfg.nproc)
	if cfg.trace {
		return traceEngine(w, cfg, res)
	}
	return measureEngine(w, cfg, res)
}

// openWarm builds the engine and runs the warm-up rounds.
func (w engineWorkload) openWarm(seed uint64, workers int, snap []byte) (*engineRun, error) {
	r, err := w.open(seed, workers, snap)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupRounds; i++ {
		r.runRound()
	}
	return r, nil
}

// checkRound applies the per-round output checks: size inside the
// admissible interval at every epoch boundary.
func (w engineWorkload) checkRound(r *engineRun, res *result) {
	if r.round()%uint64(w.epochLen) != 0 {
		return
	}
	lo, hi := bounds(w.n)
	size := r.size()
	res.check(size >= lo && size <= hi, "round %d: size %d outside [%d, %d]", r.round(), size, lo, hi)
}

// measureEngine is the --trace 0 run: set-up, a timed window of whole
// epochs at Workers = NumCPU, then untimed wire-layer timings and the
// determinism check.
func measureEngine(w engineWorkload, cfg runConfig, res *result) error {
	var (
		setups []float64
		r      *engineRun
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if r, err = w.openWarm(cfg.seed, cfg.nproc, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer r.close()

	var (
		lat         []float64
		agentSteps  float64
		alterations int
		births      int
		deaths      int
	)
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	// The window is a whole number of epochs long, so each phase of the
	// epoch weighs the same in every run.
	for {
		t := time.Now()
		rep := r.runRound()
		lat = append(lat, ms(time.Since(t)))
		agentSteps += float64(rep.SizeBefore)
		res.op(nil)
		alterations += rep.AdvInserted + rep.AdvDeleted
		births += rep.Births
		deaths += rep.Deaths
		w.checkRound(r, res)
		if time.Since(start) >= window && len(lat) >= minSamples && len(lat)%w.epochLen == 0 {
			break
		}
	}
	wall := time.Since(start)
	heap := liveHeapMiB()
	if w.attacked {
		res.check(alterations > 0, "the adversary made no alteration in %d rounds", len(lat))
	} else {
		res.check(births > 0 && deaths > 0, "no churn in %d rounds (births %d, deaths %d)", len(lat), births, deaths)
	}

	// The wire layer, outside the window. Each repetition starts from a
	// collected heap, so it reuses the pages the previous one freed instead
	// of faulting in fresh ones.
	var (
		snap              []byte
		snapMS, restoreMS []float64
	)
	for i := 0; i < snapshotReps; i++ {
		runtime.GC()
		t := time.Now()
		b := r.snapshot()
		snapMS = append(snapMS, ms(time.Since(t)))
		res.op(nil)
		if snap != nil {
			res.check(bytes.Equal(b, snap), "snapshot %d differs from the first of the same state", i)
		}
		snap = b
	}
	for i := 0; i < restoreReps; i++ {
		runtime.GC()
		t := time.Now()
		r2, err := w.open(cfg.seed, cfg.nproc, snap)
		restoreMS = append(restoreMS, ms(time.Since(t)))
		if res.op(err) {
			r2.close()
		}
	}
	if err := checkDeterminism(w, cfg, r, snap, res); err != nil {
		return err
	}

	res.set("agentsteps_per_s", agentSteps/wall.Seconds(), len(lat))
	res.set("op_ms_p50", median(lat), len(lat))
	res.set("op_ms_p90", percentile(lat, 90), len(lat))
	res.alias("round_ms_p50", "ms", median(lat), len(lat))
	res.alias("round_ms_p90", "ms", percentile(lat, 90), len(lat))
	if p := tailPercentile(len(lat)); p > 90 {
		res.alias(fmt.Sprintf("round_ms_p%g", p), "ms", percentile(lat, p), len(lat))
	}
	res.set("snapshot_ms_p50", median(snapMS), len(snapMS))
	res.set("restore_ms_p50", median(restoreMS), len(restoreMS))
	res.set("setup_s", median(setups), len(setups))
	res.set("heap_live_mb", heap, 1)
	return nil
}

// checkDeterminism is the DESIGN.md §8 boundary: snap restored at Workers
// = 1 and at NumCPU re-encodes to itself, and after the same rounds both
// copies and the original engine hold byte-equal state.
func checkDeterminism(w engineWorkload, cfg runConfig, orig *engineRun, snap []byte, res *result) error {
	a, err := w.open(cfg.seed, 1, snap)
	if !res.op(err) {
		return nil
	}
	defer a.close()
	b, err := w.open(cfg.seed, cfg.nproc, snap)
	if !res.op(err) {
		return nil
	}
	defer b.close()
	res.check(bytes.Equal(a.snapshot(), snap), "restore at Workers=1 does not re-encode to its snapshot")
	for i := 0; i < checkRounds; i++ {
		orig.runRound()
		a.runRound()
		b.runRound()
	}
	so, sa, sb := orig.snapshot(), a.snapshot(), b.snapshot()
	res.check(bytes.Equal(sa, sb), "Workers=1 and Workers=%d diverge after %d rounds from one snapshot", cfg.nproc, checkRounds)
	res.check(bytes.Equal(so, sb), "restored engine diverges from the original after %d rounds", checkRounds)
	return nil
}

// segment is one measured stretch of a traced run: the same rounds from the
// same snapshot, at one worker count, traced or not.
type segment struct {
	workers int
	traced  bool
	rounds  int
	wall    time.Duration
	stats   sim.RoundStats
	pipe    match.PipelineStats
	counts  protocol.Counters
	alters  int
	// spanNS, otherNS and phaseNS sum the round span, its self time, and
	// the phase counters over the traced rounds.
	spanNS, otherNS, phaseNS float64
	final                    []byte
	encodeNS, decodeNS       float64
}

// traceEngine is the --trace 1 run. From one warmed snapshot it runs the
// same rounds four times: untraced and traced at NumCPU, untraced and
// traced at Workers = 1. The first segment's length is set by the clock in
// whole epochs; the rest repeat its round count, so all four do identical
// work.
func traceEngine(w engineWorkload, cfg runConfig, res *result) error {
	r, err := w.openWarm(cfg.seed, cfg.nproc, nil)
	if err != nil {
		return err
	}
	s0 := r.snapshot()
	r.close()

	rec := newRecorder()
	budget := time.Duration(cfg.seconds / 6 * float64(time.Second))
	segs := []*segment{
		{workers: cfg.nproc},
		{workers: cfg.nproc, traced: true},
		{workers: 1},
		{workers: 1, traced: true},
	}
	for i, sg := range segs {
		rounds := segs[0].rounds
		if i == 0 {
			rounds = -1
		}
		if err := w.runSegment(cfg, s0, sg, rounds, budget, rec, res); err != nil {
			return err
		}
	}
	for _, sg := range segs[1:] {
		res.check(bytes.Equal(sg.final, segs[0].final),
			"segment at Workers=%d traced=%v ends in different state than Workers=%d untraced",
			sg.workers, sg.traced, segs[0].workers)
	}

	n, n1 := segs[1], segs[3]
	for _, pair := range []struct {
		suffix   string
		traced   *segment
		untraced *segment
	}{{"", n, segs[0]}, {".w1", n1, segs[2]}} {
		for name, v := range w.layerMetrics(pair.traced) {
			res.set(name+pair.suffix, v, pair.traced.rounds)
		}
		res.set("obs.tracing_overhead"+pair.suffix,
			ratio(pair.untraced.wall.Seconds(), pair.traced.wall.Seconds()), pair.traced.rounds)
	}
	// Both segments ran the same rounds, so phase totals compare directly.
	res.set("pool.round_speedup", ratio(n1.spanNS, n.spanNS), n.rounds)
	res.set("pool.match_speedup", ratio(float64(n1.stats.MatchNS), float64(n.stats.MatchNS)), n.rounds)
	res.set("pool.walk_speedup", ratio(float64(n1.pipe.WalkNS), float64(n.pipe.WalkNS)), n.rounds)
	res.set("pool.step_speedup", ratio(float64(n1.stats.StepNS), float64(n.stats.StepNS)), n.rounds)
	res.zeroMissing(perLayer()) // the serving-layer metrics: not exercised here
	return writeSpans(filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)), rec.snapshot())
}

// runSegment restores s0 at sg.workers, warms up, and runs rounds rounds
// (or, when rounds < 0, whole epochs' worth of rounds until budget has
// passed, so every phase of the epoch is covered equally often).
func (w engineWorkload) runSegment(cfg runConfig, s0 []byte, sg *segment, rounds int, budget time.Duration, rec *recorder, res *result) error {
	r, err := w.openWarm(cfg.seed, sg.workers, s0)
	if err != nil {
		return err
	}
	defer r.close()
	if !sg.traced {
		rec = nil
	}
	stats0 := r.roundStats()
	pipe0, _ := r.pipeline()
	counts0 := r.counters()
	start := time.Now()
	for i := 0; rounds < 0 || i < rounds; i++ {
		if rounds < 0 && time.Since(start) >= budget && sg.rounds >= minSamples && sg.rounds%w.epochLen == 0 {
			break
		}
		var (
			before  sim.RoundStats
			pBefore match.PipelineStats
		)
		if rec != nil {
			before = r.roundStats()
			pBefore, _ = r.pipeline()
		}
		t0 := rec.now()
		rep := r.runRound()
		t1 := rec.now()
		res.op(nil)
		sg.rounds++
		sg.alters += rep.AdvInserted + rep.AdvDeleted
		if rec != nil {
			pAfter, _ := r.pipeline()
			self, phases := recordRound(rec, cfg.workload, r.round(), t0, t1, r.roundStats().Sub(before), pAfter.Sub(pBefore))
			sg.spanNS += float64(t1 - t0)
			sg.otherNS += float64(self)
			sg.phaseNS += float64(phases)
		}
		w.checkRound(r, res)
	}
	sg.wall = time.Since(start)
	sg.stats = r.roundStats().Sub(stats0)
	pipe1, _ := r.pipeline()
	sg.pipe = pipe1.Sub(pipe0)
	sg.counts = subCounters(r.counters(), counts0)

	var enc, dec []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		sg.final = r.snapshot()
		enc = append(enc, float64(time.Since(t)))
		t = time.Now()
		r2, err := w.open(cfg.seed, sg.workers, sg.final)
		dec = append(dec, float64(time.Since(t)))
		if res.op(err) {
			r2.close()
		}
	}
	sg.encodeNS, sg.decodeNS = median(enc), median(dec)
	return nil
}

// recordRound records the round span and its phases as derived child
// spans, laid out in the order RunRound runs them: the adversary turn, then
// compose and matching side by side (they overlap), then step, the kill
// fold and apply. It returns the round's self time and its phase sum.
func recordRound(rec *recorder, workload string, round uint64, t0, t1 int64, d sim.RoundStats, pd match.PipelineStats) (self, phases int64) {
	trace := fmt.Sprintf("%s/round-%d", workload, round)
	root := span{Trace: trace, ID: trace, Name: "sim.RunRound", Start: t0, End: t1}
	rec.add(root)
	var children []interval
	child := func(parent, name string, start int64, ns uint64) int64 {
		end := start + int64(ns)
		if ns > 0 {
			s := span{Trace: trace, ID: trace + "/" + name, Parent: parent, Name: name, Start: start, End: end, Derived: true}
			rec.add(s)
			if parent == root.ID {
				children = append(children, s.interval())
			}
		}
		return end
	}
	at := child(root.ID, "adversary.turn", t0, d.AdversaryNS)
	composeEnd := child(root.ID, "protocol.compose", at, d.ComposeNS)
	matchEnd := child(root.ID, "match.sample", at, d.MatchNS)
	sub := at
	for _, ph := range []struct {
		name string
		ns   uint64
	}{{"match.bucket", pd.BucketNS}, {"match.scatter", pd.ScatterNS}, {"match.cand", pd.CandNS}, {"match.walk", pd.WalkNS}} {
		sub = child(root.ID+"/match.sample", ph.name, sub, ph.ns)
	}
	at = max(composeEnd, matchEnd)
	at = child(root.ID, "protocol.step", at, d.StepNS)
	at = child(root.ID, "sim.kill_fold", at, d.KillFoldNS)
	child(root.ID, "population.apply", at, d.ApplyNS)
	phases = int64(d.AdversaryNS + d.ComposeNS + d.MatchNS + d.StepNS + d.KillFoldNS + d.ApplyNS)
	return selfTime(root.interval(), children), phases
}

func subCounters(a, b protocol.Counters) protocol.Counters {
	return protocol.Counters{
		EvalSplits:        a.EvalSplits - b.EvalSplits,
		EvalDeaths:        a.EvalDeaths - b.EvalDeaths,
		ConsistencyDeaths: a.ConsistencyDeaths - b.ConsistencyDeaths,
	}
}

// layerMetrics derives the engine's per-layer metrics from a traced
// segment.
func (w engineWorkload) layerMetrics(sg *segment) map[string]float64 {
	rounds := float64(sg.rounds)
	per := func(v uint64) float64 { return float64(v) / rounds }
	epochs := rounds / float64(w.epochLen)
	walks := sg.pipe.SpecWalks + sg.pipe.SerialWalks
	return map[string]float64{
		"sim.round_ns":                          sg.spanNS / rounds,
		"sim.other_ns":                          sg.otherNS / rounds,
		"sim.phase_consistency":                 ratio(sg.phaseNS+sg.otherNS, sg.spanNS),
		"sim.alloc_bytes_per_round":             per(sg.stats.AllocBytes),
		"sim.allocs_per_round":                  per(sg.stats.AllocObjects),
		"protocol.compose_ns":                   per(sg.stats.ComposeNS),
		"protocol.step_ns":                      per(sg.stats.StepNS),
		"protocol.eval_splits_per_epoch":        float64(sg.counts.EvalSplits) / epochs,
		"protocol.eval_deaths_per_epoch":        float64(sg.counts.EvalDeaths) / epochs,
		"protocol.consistency_deaths_per_epoch": float64(sg.counts.ConsistencyDeaths) / epochs,
		"match.ns":                              per(sg.stats.MatchNS),
		"match.bucket_ns":                       per(sg.pipe.BucketNS),
		"match.scatter_ns":                      per(sg.pipe.ScatterNS),
		"match.cand_ns":                         per(sg.pipe.CandNS),
		"match.walk_ns":                         per(sg.pipe.WalkNS),
		"match.spec_walk_share":                 ratio(float64(sg.pipe.SpecWalks), float64(walks)),
		"match.walk_conflict_rate":              sg.pipe.ConflictRate(),
		"population.apply_ns":                   per(sg.stats.ApplyNS),
		"population.births_per_round":           per(sg.stats.Births),
		"population.deaths_per_round":           per(sg.stats.Deaths),
		"adversary.turn_ns":                     per(sg.stats.AdversaryNS),
		"adversary.alterations_per_epoch":       float64(sg.alters) / epochs,
		"wire.snapshot_bytes":                   float64(len(sg.final)),
		"wire.encode_ns":                        sg.encodeNS,
		"wire.decode_ns":                        sg.decodeNS,
	}
}
