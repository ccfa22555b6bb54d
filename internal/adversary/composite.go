package adversary

import (
	"strings"

	"popstab/internal/agent"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// Composite runs several strategies in order against the shared budget; the
// first strategies get priority. This models an adversary that combines
// attacks (e.g. delete color-1 leaders AND insert color-0 leaders).
type Composite struct {
	// Label names the combination; empty derives one from the parts.
	Label string
	// Parts are invoked in order.
	Parts []Adversary
}

var _ Adversary = (*Composite)(nil)

// NewComposite combines strategies under a shared budget.
func NewComposite(label string, parts ...Adversary) *Composite {
	return &Composite{Label: label, Parts: parts}
}

// Name implements Adversary.
func (c *Composite) Name() string {
	if c.Label != "" {
		return c.Label
	}
	names := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// Act implements Adversary.
func (c *Composite) Act(v View, m Mutator, src *prng.Source) {
	for _, p := range c.Parts {
		if m.Remaining() == 0 {
			return
		}
		p.Act(v, m, src)
	}
}

// parts implements wrapper.
func (c *Composite) parts() []Adversary { return c.Parts }

// Alternator switches between two strategies every Period rounds, modeling
// an adversary that altenately inflates and deflates to resonate with the
// protocol's correction dynamics.
type Alternator struct {
	// Label names the strategy.
	Label string
	// Period is the number of rounds each phase lasts; 0 means one epoch.
	Period int
	// A and B are the two phases.
	A, B Adversary
}

var _ Adversary = (*Alternator)(nil)

// Name implements Adversary.
func (a *Alternator) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "alternate(" + a.A.Name() + "," + a.B.Name() + ")"
}

// parts implements wrapper.
func (a *Alternator) parts() []Adversary { return []Adversary{a.A, a.B} }

// Act implements Adversary.
func (a *Alternator) Act(v View, m Mutator, src *prng.Source) {
	period := a.Period
	if period <= 0 {
		period = v.Params().T
	}
	phase := (v.GlobalRound() / uint64(period)) % 2
	if phase == 0 {
		a.A.Act(v, m, src)
	} else {
		a.B.Act(v, m, src)
	}
}

// ColorSkewer is the strongest color-distribution attack within budget: it
// splits its budget between deleting cluster roots of one color and
// inserting fake roots of the other, maximally biasing the same-color
// meeting probability. Direction up (inflate) biases toward a monoculture
// (more same-color meetings → more splits); direction down inserts
// singleton clusters to dilute the color correlation (fewer same-color
// meetings relative to N-equilibrium → more deaths... relatively fewer
// splits).
type ColorSkewer struct {
	// Up selects the attack direction: true pushes the population above N,
	// false below.
	Up bool

	deleter  *Deleter
	inserter *Inserter
}

var _ Adversary = (*ColorSkewer)(nil)

// NewColorSkewer builds the attack for the given direction.
func NewColorSkewer(up bool) *ColorSkewer {
	cs := &ColorSkewer{Up: up}
	if up {
		cs.deleter = NewColorDeleter(1)
		cs.inserter = NewFakeLeaderInserter(0)
	} else {
		cs.inserter = NewSingletonInserter()
	}
	return cs
}

// Name implements Adversary.
func (cs *ColorSkewer) Name() string {
	if cs.Up {
		return "skew-up"
	}
	return "skew-down"
}

// Act implements Adversary.
func (cs *ColorSkewer) Act(v View, m Mutator, src *prng.Source) {
	if cs.Up {
		// Spend half the budget deleting color-1 roots early in the epoch,
		// the rest inserting color-0 roots.
		half := m.Remaining() / 2
		spent := 0
		cs.deleter.scratch = v.Find(cs.deleter.scratch[:0], -1, TargetColor(1))
		n := len(cs.deleter.scratch)
		for i := 0; i < n && spent < half; i++ {
			j := i + src.Intn(n-i)
			cs.deleter.scratch[i], cs.deleter.scratch[j] = cs.deleter.scratch[j], cs.deleter.scratch[i]
			if m.Delete(cs.deleter.scratch[i]) {
				spent++
			}
		}
		cs.inserter.Act(v, m, src)
		return
	}
	cs.inserter.Act(v, m, src)
}

// Trauma deletes at full budget for a fixed window of rounds and is
// otherwise dormant — the acute-injury scenario from the paper's biological
// motivation (an organ losing a fraction of its cells at once, up to the
// model's per-round rate bound).
type Trauma struct {
	// StartRound is the first round of the injury window.
	StartRound uint64
	// Rounds is the window length.
	Rounds uint64

	deleter *Deleter
}

var _ Adversary = (*Trauma)(nil)

// NewTrauma builds an injury of the given window.
func NewTrauma(startRound, rounds uint64) *Trauma {
	return &Trauma{StartRound: startRound, Rounds: rounds, deleter: NewRandomDeleter()}
}

// Name implements Adversary.
func (tr *Trauma) Name() string { return "trauma" }

// Act implements Adversary.
func (tr *Trauma) Act(v View, m Mutator, src *prng.Source) {
	r := v.GlobalRound()
	if r < tr.StartRound || r >= tr.StartRound+tr.Rounds {
		return
	}
	tr.deleter.Act(v, m, src)
}

// Greedy estimates the population's displacement from N each round and
// pushes in the same direction (away from the target), switching between
// the skew-up and skew-down machinery plus the eval-flood deletion
// amplifier. It is the strongest single heuristic adversary in the library
// and the default stress strategy in experiments.
type Greedy struct {
	up   *ColorSkewer
	down *ColorSkewer
	amp  *Inserter
}

var _ Adversary = (*Greedy)(nil)

// NewGreedy builds the adaptive strategy.
func NewGreedy() *Greedy {
	return &Greedy{
		up:   NewColorSkewer(true),
		down: NewColorSkewer(false),
		amp:  NewEvalFlooder(),
	}
}

// Name implements Adversary.
func (g *Greedy) Name() string { return "greedy" }

// Act implements Adversary.
func (g *Greedy) Act(v View, m Mutator, src *prng.Source) {
	n := v.Params().N
	cur := v.Len()
	switch {
	case cur >= n:
		// Push further up.
		g.up.Act(v, m, src)
	case cur <= n-n/64:
		// Clearly below: amplify deletions.
		half := m.Remaining() / 2
		for i := 0; i < half; i++ {
			g.amp.Act(v, &cappedMutator{m: m, cap: 1}, src)
		}
		g.down.Act(v, m, src)
	default:
		g.down.Act(v, m, src)
	}
}

// cappedMutator restricts a Mutator to a sub-budget.
type cappedMutator struct {
	m    Mutator
	cap  int
	used int
}

var _ Mutator = (*cappedMutator)(nil)

func (c *cappedMutator) Delete(i int) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.Delete(i) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) Insert(s agent.State) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.Insert(s) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) InsertAt(s agent.State, pt population.Point) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.InsertAt(s, pt) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) DeleteNear(center population.Point, r float64, limit int) int {
	quota := c.cap - c.used
	if quota <= 0 {
		return 0
	}
	if limit >= 0 && limit < quota {
		quota = limit
	}
	n := c.m.DeleteNear(center, r, quota)
	c.used += n
	return n
}

func (c *cappedMutator) Remaining() int {
	r := c.cap - c.used
	if mr := c.m.Remaining(); mr < r {
		r = mr
	}
	return r
}
