package adversary

import (
	"fmt"
	"strings"

	"popstab/internal/wire"
)

// Fingerprinted is implemented by strategies whose Name() does not expose
// their full configuration (patch centers, attack windows): Fingerprint
// renders every behavior-determining parameter. The engine's snapshot
// identity uses FingerprintOf, so a snapshot cannot silently restore into
// a strategy aimed at a different point.
type Fingerprinted interface {
	Fingerprint() string
}

// FingerprintOf renders a strategy's full configuration identity, falling
// back to Name() for strategies whose name already carries everything.
func FingerprintOf(a Adversary) string {
	if f, ok := a.(Fingerprinted); ok {
		return f.Fingerprint()
	}
	return a.Name()
}

// Fingerprint implements Fingerprinted (Name omits the center).
func (d *PatchDeleter) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g)", d.Name(), d.Center.X, d.Center.Y)
}

// Fingerprint implements Fingerprinted (Name omits the center).
func (in *ClusterInserter) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g)", in.Name(), in.Center.X, in.Center.Y)
}

// Fingerprint implements Fingerprinted by delegation to both halves.
func (pc *PatchCombo) Fingerprint() string {
	return fmt.Sprintf("%s[%s,%s]", pc.Name(), FingerprintOf(pc.Deleter), FingerprintOf(pc.Inserter))
}

// Fingerprint implements Fingerprinted (Name omits region and target
// centers).
func (ra *RewireAdversary) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g,r=%g)->(%g,%g,r=%g,d=%d)",
		ra.Name(), ra.Center.X, ra.Center.Y, ra.Radius,
		ra.TargetCenter.X, ra.TargetCenter.Y, ra.TargetRadius, ra.Directive)
}

// Fingerprint implements Fingerprinted (Name omits the injury window).
func (tr *Trauma) Fingerprint() string {
	return fmt.Sprintf("%s@[%d,+%d)", tr.Name(), tr.StartRound, tr.Rounds)
}

// Fingerprint implements Fingerprinted by delegation.
func (p *Paced) Fingerprint() string {
	return fmt.Sprintf("%s/every%d", FingerprintOf(p.Inner), p.Every)
}

// Fingerprint implements Fingerprinted by delegation to every part.
func (c *Composite) Fingerprint() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = FingerprintOf(p)
	}
	return fmt.Sprintf("composite[%s]", strings.Join(parts, "+"))
}

// Fingerprint implements Fingerprinted by delegation to both phases.
func (a *Alternator) Fingerprint() string {
	return fmt.Sprintf("alternate%d[%s,%s]", a.Period, FingerprintOf(a.A), FingerprintOf(a.B))
}

// Stateful is implemented by strategies that carry mutable per-run state
// beyond what the engine's round counter determines — PatchCombo's
// alternation parity is the canonical case. The engine snapshot captures it
// so a restored run continues the attack mid-stride; purely
// round-clocked strategies (Paced, Trauma, Alternator's phase) derive their
// behavior from View.GlobalRound and need nothing here. Wrappers never
// implement it: EncodeState and DecodeState reach through them.
type Stateful interface {
	// EncodeState appends the strategy's mutable state to a snapshot.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a strategy
	// built from the same configuration.
	DecodeState(d *wire.Dec) error
}

var _ Stateful = (*PatchCombo)(nil)

// wrapper is implemented by the strategies that only combine others
// (Paced, Composite, Alternator). The package-level walks — BindMatcher,
// HasState, EncodeState, DecodeState — reach through wrappers, so a
// wrapper forwards nothing by hand.
type wrapper interface {
	// parts lists the wrapped strategies in structural order.
	parts() []Adversary
}

var (
	_ wrapper = (*Paced)(nil)
	_ wrapper = (*Composite)(nil)
	_ wrapper = (*Alternator)(nil)
)

// leaves appends the strategies of adv's tree that are not wrappers to dst,
// depth-first with parts in order. The order is a pure function of the
// configuration, which is what makes the snapshot layout one.
func leaves(adv Adversary, dst []Adversary) []Adversary {
	w, ok := adv.(wrapper)
	if !ok {
		return append(dst, adv)
	}
	for _, p := range w.parts() {
		dst = leaves(p, dst)
	}
	return dst
}

// HasState reports whether adv's snapshot carries an adversary section:
// adv is Stateful, or it is a wrapper. A wrapper's section is present even
// when every part is stateless (and then empty) — the snapshot layout
// stored checkpoints already use.
func HasState(adv Adversary) bool {
	_, st := adv.(Stateful)
	_, w := adv.(wrapper)
	return st || w
}

// EncodeState appends the state of every Stateful strategy in adv's tree,
// in structural order; stateless strategies contribute nothing.
func EncodeState(adv Adversary, e *wire.Enc) {
	for _, a := range leaves(adv, nil) {
		if s, ok := a.(Stateful); ok {
			s.EncodeState(e)
		}
	}
}

// DecodeState mirrors EncodeState on a strategy tree built from the same
// configuration.
func DecodeState(adv Adversary, d *wire.Dec) error {
	for _, a := range leaves(adv, nil) {
		if s, ok := a.(Stateful); ok {
			if err := s.DecodeState(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeState implements Stateful: the alternation parity that decides
// which half of the combo acts first.
func (pc *PatchCombo) EncodeState(e *wire.Enc) { e.U64(pc.turn) }

// DecodeState implements Stateful.
func (pc *PatchCombo) DecodeState(d *wire.Dec) error {
	pc.turn = d.U64()
	return d.Err()
}
