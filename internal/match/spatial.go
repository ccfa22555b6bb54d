package match

import (
	"errors"
	"math"
	"time"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// This file is the shared chassis of every spatial Matcher (Torus, Ring,
// Grid, SmallWorld): a position side-array bound through population.Tracker
// hooks plus one sharded nearest-available matching pipeline. The concrete
// matchers differ only in their geometry (bucket layout + metric) and their
// placement closures; roughly 100 LoC each buys a new topology.
//
// # The sharded matching pipeline
//
// Nearest-available matching is a greedy sequential algorithm: agents are
// visited in a random order and each pairs with its nearest still-unmatched
// candidate, so the outcome of a visit depends on every earlier visit. The
// pipeline keeps the exact pairings of the historical serial implementation
// while sharding every O(n) stage:
//
//  1. bucket (sharded): cellIdx[i] = cell of agent i — pure float math. On
//     rounds that also have an adversary turn, the engine runs this phase
//     EARLY through PreBucket, overlapped with the serial adversary staging
//     (positions don't move until the staged alterations are applied, and a
//     round that does alter drops the prebucket — DESIGN.md §12);
//  2. scatter (sharded): a stable counting sort builds the CSR cell index
//     (cellStart/cellAgents) with the count→scan→scatter idiom of
//     population/applyplan.go: per-shard histograms over agent ranges, an
//     exclusive scan over (cell, shard), and a scatter into precomputed
//     disjoint slots. Within a cell, slots are laid out shard-major and
//     shards cover ascending agent ranges, so the layout — ascending agent
//     index within each cell — is bit-identical to the historical serial
//     cursor scatter at every shard count;
//  3. candidates (sharded): each agent scans its neighborhood cells and
//     keeps its candK nearest candidates, sorted by (distance, scan order)
//     — sharded across Workers with no shared writes (each agent owns its
//     candidate slots);
//  4. greedy walk (serial): visit agents in a random order drawn from the
//     matcher's stream; each unmatched agent takes the first unmatched
//     entry of its precomputed candidate list. Because the list is the
//     prefix of the full stable ordering, "first unmatched stored
//     candidate" IS the nearest unmatched candidate — unless all stored
//     entries are taken while further candidates exist, in which case an
//     exact fallback rescan of the neighborhood (same metric, same
//     tie-breaking) recovers the answer. The walk is inherently sequential
//     and stays serial: a speculative parallel walk was measured slower
//     than this loop, because its validation pass is itself a serial scan
//     of the visit order doing the same reads and writes (DESIGN.md §12).
//
// The sharded phases run on the worker pool handed to Bind; a matcher bound
// with no pool — standalone use — runs them inline.
//
// # Tie-breaking rule
//
// Candidates at exactly equal distance are ordered by scan position: cells
// are visited in the geometry's fixed neighborhood order and agents within
// a cell in ascending index order, and the bounded insertion sort of phase
// 3 (like the fallback rescan's strict `<` minimum) lets the earliest
// encounter win. This is the same rule the historical serial loop applied,
// which is what makes the pipeline's output bit-identical to it — and,
// since phases 1–3 are deterministic functions with shard-invariant
// layouts and phase 4 is the serial rule itself, bit-identical across every
// worker count.
//
// The pipeline itself consumes randomness only in the serial walk (the
// visit permutation). Matchers that need per-agent coins inside the sharded
// candidate phase (SmallWorld's rewiring) draw them from counter-based
// streams keyed on (matcher key, sample counter, agent index) — see
// prng.SeedCounter — so shard boundaries cannot perturb them.

// candK is the number of nearest candidates precomputed per agent. Larger
// values make the exact fallback rescan rarer but cost memory bandwidth in
// the sharded candidate phase. The rescan runs in the serial greedy walk:
// at ~1 agent per cell, the probability that an agent's 8 nearest are all
// matched before its visit is a fraction of a percent, which keeps the
// rescan time negligible against the sharded phases.
const candK = 8

// maxNbrCells bounds a geometry's neighborhood size (3×3 cells in 2-D,
// 3 cells in 1-D).
const maxNbrCells = 9

// minSpatialShard bounds how finely the sharded phases split: below ~1k
// agents per worker the task hand-off overhead exceeds the per-agent work.
// Purely a scheduling heuristic — output is worker-count-invariant.
const minSpatialShard = 1024

// geometry is the static-dispatch seam between the shared pipeline and a
// concrete topology: bucket layout, neighborhood scan order, and metric.
// The type parameter trick (G's prepare returns G) keeps every call
// monomorphized — no interface dispatch on the per-candidate hot path.
type geometry[G any] interface {
	// prepare returns the geometry instance for a population of n agents
	// (bucket-grid resolution derived from n).
	prepare(n int) G
	// numCells reports the bucket count of the prepared grid.
	numCells() int
	// cell maps a position to its bucket index.
	cell(pt population.Point) int32
	// neighborhood appends the buckets adjacent to c (including c) to buf
	// in the fixed scan order that defines candidate tie-breaking.
	neighborhood(c int32, buf []int32) []int32
	// dist2 is the squared distance between two positions in this metric.
	dist2(a, b population.Point) float64
	// patch draws a position uniformly within distance r of center under
	// this geometry (wrapping or reflecting as the topology demands),
	// consuming src. r ≤ 0 returns center exactly.
	patch(src *prng.Source, center population.Point, r float64) population.Point
}

// spatial is the shared state of a spatial matcher: the bound position
// side-array, the worker pool, and the pipeline's reusable buffers.
// Concrete matchers embed it and call bind from their Bind.
type spatial[G geometry[G]] struct {
	geo G
	// pool, when set at Bind, runs the sharded phases on the engine's
	// persistent worker pool; without one (standalone use) they run inline.
	// Output is identical either way.
	pool *pool.Pool

	pos *population.Positions
	src *prng.Source
	// probeSrc feeds SampleProbe so measurement probes never perturb the
	// placement stream (src) or the engine's matching stream.
	probeSrc *prng.Source

	// rewrite, when non-nil, may replace agent i's candidate list in the
	// sharded candidate phase (SmallWorld rewiring): it writes up to
	// len(dst) candidate indices into dst and returns how many, or -1 to
	// keep the geometric candidates. It runs concurrently from shards and
	// must be a pure function of (i, n, call) — per-agent randomness comes
	// from counter-based streams, never from a shared Source.
	rewrite func(i, n int, call uint64, dst []int32) int
	// prematch, when non-nil, runs serially at the top of every sample,
	// before the sharded phases — the hook SmallWorld uses to precompute
	// per-round state the concurrent rewrite reads (the rewire-force target
	// list). It must not consume randomness.
	prematch func(n int)
	// calls counts SampleMatch invocations (probe samples count
	// separately, with probeBit set) — the per-round word of the rewrite
	// hook's counter streams.
	calls, probeCalls uint64

	// stats accumulates the per-phase pipeline counters (PipelineStats).
	stats PipelineStats

	// preValid marks a pending PreBucket for exactly preN agents; the next
	// sample over that n skips phase 1. One sample only, dropped on any
	// other n and by DropPrebucket.
	preValid bool
	preN     int

	// Pipeline buffers, reused across rounds (1.5× growth slack).
	cellIdx    []int32            // agent -> bucket
	cellStart  []int32            // CSR: bucket c holds cellAgents[cellStart[c]:cellStart[c+1]]
	cellAgents []int32            // bucketed agent indices, ascending within a cell
	posByCell  []population.Point // positions in CSR order — sequential reads in the candidate scan
	cnt        []int32            // scatter histograms, one row of ncells per shard
	cand       []int32            // candK nearest candidates per agent
	candN      []uint8            // stored candidate count per agent
	candTotal  []int32            // total candidates encountered per agent
	order      []int32            // visit permutation
}

// probeBit distinguishes probe-sample rewrite streams from match-sample
// streams so probing can never replay or perturb simulation randomness.
const probeBit = uint64(1) << 63

// bind attaches the position side-array (placement via the given closures),
// captures the matcher streams, and keeps the pipeline's pool. Call exactly
// once, before the first SampleMatch.
func (s *spatial[G]) bind(pop *population.Population, src *prng.Source, pl *pool.Pool, place func() population.Point, spawn func(population.Point) population.Point) {
	if s.pos != nil {
		panic("match: spatial matcher bound twice")
	}
	s.pool = pl
	s.src = src
	s.probeSrc = src.Split()
	s.pos = &population.Positions{Place: population.PlaceFunc(place), Spawn: spawn}
	pop.Attach(s.pos)
}

// Positions implements Spatial: the bound position side-array (nil before
// Bind).
func (s *spatial[G]) Positions() *population.Positions { return s.pos }

// Dist2 implements Spatial with the geometry's metric. The metric is position-
// only (bucket resolution does not enter it), so it is valid before the
// first SampleMatch.
func (s *spatial[G]) Dist2(a, b population.Point) float64 { return s.geo.dist2(a, b) }

// PatchPoint implements Spatial: a uniform draw within distance r of center
// under the geometry, from the caller's stream.
func (s *spatial[G]) PatchPoint(center population.Point, r float64, src *prng.Source) population.Point {
	return s.geo.patch(src, center, r)
}

// PipelineStats implements Spatial: the cumulative per-phase counters
// of the matching pipeline since construction.
func (s *spatial[G]) PipelineStats() PipelineStats { return s.stats }

// run executes fn over [0, n) in contiguous shards on the pool, inline
// when no pool is attached.
func (s *spatial[G]) run(n int, fn func(lo, hi int)) {
	if s.pool == nil {
		fn(0, n)
		return
	}
	s.pool.Run(n, minSpatialShard, fn)
}

// shardCount reports how many contiguous shards run() would split n items
// into — the partition the scatter sizes its per-shard histograms by.
func (s *spatial[G]) shardCount(n int) int {
	if s.pool == nil {
		return 1
	}
	return s.pool.Shards(n, minSpatialShard)
}

// runN fans fn out over shard indices 0..w-1 on the pool, inline when no
// pool is attached.
func (s *spatial[G]) runN(w int, fn func(k int)) {
	if s.pool == nil {
		for k := 0; k < w; k++ {
			fn(k)
		}
		return
	}
	s.pool.RunN(w, fn)
}

// SampleMatch implements the Matcher sampling method with sharded
// nearest-available matching over the bound positions, drawing the visit
// order from src.
func (s *spatial[G]) SampleMatch(pop *population.Population, src *prng.Source, p *Pairing) {
	if s.pos == nil {
		panic("match: spatial matcher used before Bind")
	}
	s.calls++
	s.sample(pop.Len(), src, p, s.calls)
}

// SampleProbe draws one matching from a dedicated probe stream split off at
// Bind time. Measurement probes (e.g. color-agreement sampling between
// rounds) use it so they perturb neither the simulation's matching stream
// nor the placement stream: a probed and an unprobed run of the same
// configuration stay on identical trajectories.
func (s *spatial[G]) SampleProbe(pop *population.Population, p *Pairing) {
	if s.pos == nil {
		panic("match: spatial matcher used before Bind")
	}
	s.probeCalls++
	s.sample(pop.Len(), s.probeSrc, p, s.probeCalls|probeBit)
}

// PreBucket implements Spatial: it runs phase 1 (bucketing) of the next
// sample early, for callers that can overlap it with serial work that does
// not move positions — the engine overlaps it with the adversary's staging
// turn (DESIGN.md §12). The next sample over exactly n agents reuses the
// buckets; any other n, or an intervening DropPrebucket, discards them. The
// caller owns the synchronization: PreBucket must happen-before the sample,
// with no position mutation in between.
func (s *spatial[G]) PreBucket(n int) {
	s.preValid = false
	if s.pos == nil || n < 2 {
		return
	}
	t0 := time.Now()
	pos := s.pos.Slice()
	g := s.geo.prepare(n)
	s.ensure(n, g.numCells())
	s.bucket(g, pos, n)
	s.stats.BucketNS += uint64(time.Since(t0))
	s.preN = n
	s.preValid = true
}

// DropPrebucket implements Spatial: it discards a pending PreBucket.
// The engine calls it after applying adversary alterations, which move,
// add, or remove agents.
func (s *spatial[G]) DropPrebucket() { s.preValid = false }

// bucket is phase 1: cellIdx[i] = bucket of agent i, sharded.
func (s *spatial[G]) bucket(g G, pos []population.Point, n int) {
	s.run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.cellIdx[i] = g.cell(pos[i])
		}
	})
}

// EncodeState implements Spatial: the placement and probe streams, the
// sample counters keying the rewrite hook's counter streams, and the
// position side-array (live positions plus any queued placements). The
// geometry itself and the matcher key are construction-time wiring,
// re-derived identically when the restored matcher is rebuilt and rebound
// from the same configuration and seed. Pipeline statistics and a pending
// prebucket are deliberately not state: stats are observability, and a
// prebucket never outlives the round that took the snapshot.
func (s *spatial[G]) EncodeState(e *wire.Enc) {
	for _, w := range s.src.State() {
		e.U64(w)
	}
	for _, w := range s.probeSrc.State() {
		e.U64(w)
	}
	e.U64(s.calls)
	e.U64(s.probeCalls)
	s.pos.EncodeState(e)
}

// DecodeState implements Spatial; the matcher must already be bound.
func (s *spatial[G]) DecodeState(d *wire.Dec) error {
	if s.pos == nil {
		return errDecodeUnbound
	}
	var st, pst [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	for i := range pst {
		pst[i] = d.U64()
	}
	calls := d.U64()
	probeCalls := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.pos.DecodeState(d); err != nil {
		return err
	}
	s.src.SetState(st)
	s.probeSrc.SetState(pst)
	s.calls = calls
	s.probeCalls = probeCalls
	s.preValid = false
	return nil
}

// errDecodeUnbound reports DecodeState on an unbound matcher.
var errDecodeUnbound = errors.New("match: DecodeState before Bind")

// ensure sizes the pipeline buffers for n agents over ncells buckets,
// growing with 1.5× slack so a steadily growing population does not
// reallocate every round. (The scatter histograms size themselves: their
// footprint depends on the shard count too.)
func (s *spatial[G]) ensure(n, ncells int) {
	if cap(s.cellIdx) < n {
		c := n + n/2
		s.cellIdx = make([]int32, c)
		s.cellAgents = make([]int32, c)
		s.posByCell = make([]population.Point, c)
		s.cand = make([]int32, candK*c)
		s.candN = make([]uint8, c)
		s.candTotal = make([]int32, c)
		s.order = make([]int32, c)
	}
	if cap(s.cellStart) < ncells+1 {
		s.cellStart = make([]int32, ncells+1+ncells/2)
	}
	s.cellIdx = s.cellIdx[:n]
	s.cellAgents = s.cellAgents[:n]
	s.posByCell = s.posByCell[:n]
	s.cand = s.cand[:candK*n]
	s.candN = s.candN[:n]
	s.candTotal = s.candTotal[:n]
	s.order = s.order[:n]
	s.cellStart = s.cellStart[:ncells+1]
}

// sample runs the four-phase pipeline documented at the top of this file.
func (s *spatial[G]) sample(n int, src *prng.Source, p *Pairing, call uint64) {
	p.Reset(n)
	if n < 2 {
		s.preValid = false
		return
	}
	if s.prematch != nil {
		s.prematch(n)
	}
	pos := s.pos.Slice()
	g := s.geo.prepare(n)
	ncells := g.numCells()
	s.ensure(n, ncells)
	s.stats.Samples++

	// Phase 1 (sharded): bucket every agent — unless a still-valid
	// PreBucket for exactly this n already did, overlapped with the
	// adversary turn. A prebucket is good for one sample only.
	if !s.preValid || s.preN != n {
		t0 := time.Now()
		s.bucket(g, pos, n)
		s.stats.BucketNS += uint64(time.Since(t0))
	}
	s.preValid = false

	// Phase 2 (sharded): stable counting-sort scatter into the CSR index.
	t0 := time.Now()
	s.scatter(pos, n, ncells)
	s.stats.ScatterNS += uint64(time.Since(t0))

	// Phase 3 (sharded): per-agent candK-nearest candidate selection,
	// iterated in CSR order so agents of the same cell reuse each other's
	// cached neighborhood rows, scanning the cell-sorted position copy
	// (posByCell) in contiguous segments instead of gathering pos[] at
	// random. The scan ORDER over candidates is unchanged — segments are
	// maximal runs of consecutive cell ids in the geometry's neighborhood
	// order — so tie-breaking (and the output) is bit-identical to the
	// per-agent form.
	t0 = time.Now()
	rewrite := s.rewrite
	s.run(n, func(lo, hi int) {
		var nbuf [maxNbrCells]int32
		var segs [maxNbrCells][2]int32
		// Locate the cell containing CSR slot lo.
		c := int32(0)
		{
			hiC, loC := int32(ncells), int32(0)
			for loC < hiC {
				mid := (loC + hiC) / 2
				if s.cellStart[mid+1] > int32(lo) {
					hiC = mid
				} else {
					loC = mid + 1
				}
			}
			c = loC
		}
		nseg := -1 // neighborhood segments of cell c not yet computed
		for k := lo; k < hi; k++ {
			for int32(k) >= s.cellStart[c+1] {
				c++
				nseg = -1
			}
			i := int(s.cellAgents[k])
			if rewrite != nil {
				if kn := rewrite(i, n, call, s.cand[i*candK:(i+1)*candK]); kn >= 0 {
					s.candN[i] = uint8(kn)
					s.candTotal[i] = int32(kn)
					continue
				}
			}
			if nseg < 0 {
				cells := g.neighborhood(c, nbuf[:0])
				nseg = 0
				for si := 0; si < len(cells); {
					sj := si + 1
					for sj < len(cells) && cells[sj] == cells[sj-1]+1 {
						sj++
					}
					segs[nseg] = [2]int32{s.cellStart[cells[si]], s.cellStart[cells[sj-1]+1]}
					nseg++
					si = sj
				}
			}
			s.nearestCandidates(g, i, k, segs[:nseg])
		}
	})
	s.stats.CandNS += uint64(time.Since(t0))

	// Phase 4: random-order greedy matching. The visit permutation's
	// identity fill shards (pure per-index writes); the Fisher–Yates
	// shuffle then consumes exactly the variates src.PermInt32Into would —
	// PermInt32Into IS identity-fill + Shuffle — so the order, and the
	// walk, are bit-identical to the historical form.
	t0 = time.Now()
	s.run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.order[i] = int32(i)
		}
	})
	src.Shuffle(n, func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	var nbuf [maxNbrCells]int32
	for _, oi := range s.order {
		i := int(oi)
		if p.Nbr[i] != Unmatched {
			continue
		}
		s.walkVisit(g, pos, p, i, nbuf[:0])
	}
	s.stats.SerialWalks++
	s.stats.WalkNS += uint64(time.Since(t0))
}

// maxScatterShards caps the scatter fan-out: the count→scan→scatter passes
// keep one histogram row of ncells counters per shard, so fan-out costs
// shards×ncells int32s of memory and zeroing bandwidth, and past ~8 shards
// the passes are memory-bound anyway. maxScatterCnt additionally bounds the
// total histogram footprint — cells scale like n, so giant populations
// degrade toward fewer shards instead of allocating multi-hundred-MB count
// arrays.
const (
	maxScatterShards = 8
	maxScatterCnt    = 1 << 25 // total histogram entries (int32): 128 MiB ceiling
)

// scatter is phase 2: it builds cellStart/cellAgents/posByCell — the stable
// counting-sort CSR layout, ascending agent index within each cell — with
// the ApplyPlan count→scan→scatter idiom:
//
//	pass 1 (sharded over agent ranges): per-shard histograms cnt[k][c];
//	pass 2 (sharded over cell ranges): down-column exclusive scan turning
//	       cnt[k][c] into "agents of cell c in shards before k", cell
//	       totals into cellStart[c+1], and per-shard total folds;
//	       a tiny serial exclusive scan over the per-shard totals;
//	pass 3 (sharded over cell ranges): prefix sum finishing cellStart;
//	pass 4 (sharded over agent ranges): each shard scatters its own agents
//	       into cellStart[c] + cnt[k][c]++ — precomputed disjoint slots.
//
// Within a cell, slots are laid out shard-major and shards cover ascending
// agent ranges, so the layout is bit-identical to the historical serial
// cursor scatter at every shard count; with one shard the passes ARE that
// serial scatter (histogram, prefix, cursor walk), inline on the caller.
func (s *spatial[G]) scatter(pos []population.Point, n, ncells int) {
	w := s.shardCount(n)
	if w > maxScatterShards {
		w = maxScatterShards
	}
	if ncells > 0 {
		if lim := maxScatterCnt / ncells; w > lim {
			w = lim
		}
	}
	if w < 1 {
		w = 1
	}
	if cap(s.cnt) < w*ncells {
		s.cnt = make([]int32, w*ncells)
	}
	cnt := s.cnt[:w*ncells]
	var ab, cb [maxScatterShards + 1]int
	for k := 0; k <= w; k++ {
		ab[k] = k * n / w
		cb[k] = k * ncells / w
	}

	// Pass 1: per-shard histograms (each shard zeroes its own row).
	s.runN(w, func(k int) {
		row := cnt[k*ncells : (k+1)*ncells]
		for i := range row {
			row[i] = 0
		}
		for _, c := range s.cellIdx[ab[k]:ab[k+1]] {
			row[c]++
		}
	})

	// Pass 2: per-cell down-column exclusive scan; cell totals land in
	// cellStart[c+1]; per-shard sums fold out.
	start := s.cellStart
	var shardSum [maxScatterShards]int32
	s.runN(w, func(k int) {
		sum := int32(0)
		for c := cb[k]; c < cb[k+1]; c++ {
			t := int32(0)
			for r := 0; r < w; r++ {
				at := r*ncells + c
				v := cnt[at]
				cnt[at] = t
				t += v
			}
			start[c+1] = t
			sum += t
		}
		shardSum[k] = sum
	})
	base := int32(0)
	for k := 0; k < w; k++ {
		shardSum[k], base = base, base+shardSum[k]
	}

	// Pass 3: finish the prefix sum over cell totals.
	start[0] = 0
	s.runN(w, func(k int) {
		run := shardSum[k]
		for c := cb[k]; c < cb[k+1]; c++ {
			run += start[c+1]
			start[c+1] = run
		}
	})

	// Pass 4: scatter into precomputed disjoint slots.
	s.runN(w, func(k int) {
		row := cnt[k*ncells:]
		for i := ab[k]; i < ab[k+1]; i++ {
			c := s.cellIdx[i]
			at := start[c] + row[c]
			row[c]++
			s.cellAgents[at] = int32(i)
			s.posByCell[at] = pos[i]
		}
	})
}

// walkVisit is the serial greedy-walk body for one unmatched agent: first
// unmatched stored candidate, exact fallback rescan when the stored prefix
// is exhausted but the neighborhood holds more.
func (s *spatial[G]) walkVisit(g G, pos []population.Point, p *Pairing, i int, nbuf []int32) {
	best := int32(-1)
	stored := int(s.candN[i])
	for k := 0; k < stored; k++ {
		if j := s.cand[i*candK+k]; p.Nbr[j] == Unmatched {
			best = j
			break
		}
	}
	if best < 0 && int(s.candTotal[i]) > stored {
		// All stored candidates were taken but the neighborhood holds
		// more: exact fallback rescan (same metric, same tie-break).
		best = s.rescan(g, pos, p, i, nbuf)
	}
	if best >= 0 {
		p.Nbr[i] = best
		p.Nbr[best] = int32(i)
	}
}

// nearestCandidates fills agent i's candidate slots with its candK nearest
// neighbors in (distance, scan order) — the prefix of the full stable
// ordering — via a bounded stable insertion sort over the neighborhood
// segments. selfK is agent i's own CSR slot (skipped); segs are [start,
// end) ranges of posByCell/cellAgents covering the neighborhood in exact
// scan order.
func (s *spatial[G]) nearestCandidates(g G, i, selfK int, segs [][2]int32) {
	var bd [candK]float64
	base := i * candK
	stored, total := 0, 0
	pi := s.posByCell[selfK]
	for _, sg := range segs {
		for k2 := sg[0]; k2 < sg[1]; k2++ {
			if int(k2) == selfK {
				continue
			}
			total++
			d := g.dist2(pi, s.posByCell[k2])
			if stored == candK && d >= bd[candK-1] {
				continue
			}
			// Insertion point: after every stored candidate with distance
			// ≤ d, so equal distances keep scan order (stability).
			at := stored
			for at > 0 && d < bd[at-1] {
				at--
			}
			if stored < candK {
				stored++
			}
			for m := stored - 1; m > at; m-- {
				bd[m] = bd[m-1]
				s.cand[base+m] = s.cand[base+m-1]
			}
			bd[at] = d
			s.cand[base+at] = s.cellAgents[k2]
		}
	}
	s.candN[i] = uint8(stored)
	s.candTotal[i] = int32(total)
}

// rescan is the exact nearest-unmatched search over agent i's neighborhood:
// the historical serial algorithm, used only when the precomputed candidate
// prefix is exhausted.
func (s *spatial[G]) rescan(g G, pos []population.Point, p *Pairing, i int, nbuf []int32) int32 {
	best := int32(-1)
	bestD := math.Inf(1)
	for _, c := range g.neighborhood(s.cellIdx[i], nbuf) {
		for _, j := range s.cellAgents[s.cellStart[c]:s.cellStart[c+1]] {
			if int(j) == i || p.Nbr[j] != Unmatched {
				continue
			}
			if d := g.dist2(pos[i], pos[j]); d < bestD {
				bestD = d
				best = j
			}
		}
	}
	return best
}

// gaussianOffset draws a 2-D Gaussian offset of standard deviation sigma
// via Box-Muller from two uniforms of src — the daughter-placement kernel
// shared by the spatial matchers.
func gaussianOffset(src *prng.Source, sigma float64) (dx, dy float64) {
	u1 := src.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := src.Float64()
	r := sigma * math.Sqrt(-2*math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}
