// Snapshot and restore: the engine as a steppable, checkpointable session.
//
// A snapshot captures every piece of mutable per-run state the engine and
// its pluggable components carry — agent states, position side-arrays
// (including queued placements), the scheduler/adversary/matcher/probe
// randomness streams, the counter-PRNG cursors (the global round, from
// which the per-agent counter streams are keyed), program side-arrays
// (rogue tags, cooldowns, private infiltration streams), protocol event
// counters, and adversary alternation state. Everything NOT captured is a
// pure function of the configuration and seed (stream split order, matcher
// keys, protocol parameters), so restoring a snapshot into an engine built
// from the same configuration reproduces the exact process state: the
// restored run's subsequent trajectory is bit-identical to the
// uninterrupted run, at every worker count (DESIGN.md §8 gives the
// argument; TestSnapshotResume* enforce it).
//
// Serialization rides internal/wire's snapshot codec: a framed, versioned,
// checksummed document of tagged sections, one per component.
package sim

import (
	"fmt"
	"time"

	"popstab/internal/adversary"
	"popstab/internal/wire"
)

// StateCodec is implemented by programs (Steppers or ExtendedSteppers) that
// carry mutable per-run state: side-arrays, accumulated counters, private
// streams. The engine's snapshot captures it; programs that are pure
// functions of the agent states (the baselines) simply don't implement it.
// Wrapper programs delegate to their inner program so the encoding layout
// is a pure function of the configuration.
type StateCodec interface {
	// EncodeState appends the program's mutable state to a snapshot.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a program
	// built from the same configuration.
	DecodeState(d *wire.Dec) error
}

// EncodeState implements StateCodec by delegation to the wrapped protocol.
func (sr *SelfishReplicator) EncodeState(e *wire.Enc) {
	if c, ok := sr.Inner.(StateCodec); ok {
		c.EncodeState(e)
	}
}

// DecodeState implements StateCodec.
func (sr *SelfishReplicator) DecodeState(d *wire.Dec) error {
	if c, ok := sr.Inner.(StateCodec); ok {
		return c.DecodeState(d)
	}
	return nil
}

// Section tags of the engine snapshot document, in encoding order.
const (
	tagIdentity   uint32 = 1
	tagEngine     uint32 = 2
	tagPopulation uint32 = 3
	tagMatcher    uint32 = 4
	tagProgram    uint32 = 5
	tagAdversary  uint32 = 6
)

// programSignature names the active program's concrete shape (wrapper
// chain included) for the snapshot identity check: restoring a paper-
// protocol snapshot into an attempt1 engine, or a selfish-wrapped one into
// a plain one, must fail loudly, even though both sides would decode.
func (e *Engine) programSignature() string {
	if e.xproto != nil {
		return signatureOf(e.xproto)
	}
	return signatureOf(e.proto)
}

// signatureOf renders a program's type, descending through the wrappers
// this package knows about.
func signatureOf(p any) string {
	if sr, ok := p.(*SelfishReplicator); ok {
		return fmt.Sprintf("%T[%s]", sr, signatureOf(sr.Inner))
	}
	return fmt.Sprintf("%T", p)
}

// programCodec reports the active program's StateCodec, if it has one.
func (e *Engine) programCodec() StateCodec {
	if e.xproto != nil {
		c, _ := e.xproto.(StateCodec)
		return c
	}
	c, _ := e.proto.(StateCodec)
	return c
}

// Snapshot serializes the engine's full mutable state. It must be called
// between rounds (the engine is single-goroutine; any caller able to invoke
// it is between rounds by construction). The bytes are self-checking and
// platform-independent; Restore reinstates them into an engine built from
// the same configuration.
func (e *Engine) Snapshot() []byte {
	// Timing only — RoundStats stays out of the snapshot bytes, so
	// observability never perturbs the §8 determinism contract (a restored
	// engine restarts its accounting at zero).
	t := time.Now()
	defer func() {
		e.stats.SnapshotNS += sinceNS(t)
		e.stats.Snapshots++
	}()
	enc := wire.NewEnc()

	progState := e.programCodec()
	advStateful := adversary.HasState(e.adv)

	// Identity: enough configuration fingerprint to reject a restore into
	// a differently-built engine with a clear error instead of corrupt
	// state. The presence flags pin the optional-section layout.
	enc.Begin(tagIdentity)
	enc.U64(e.cfg.Seed)
	enc.U64(uint64(e.cfg.Params.N))
	enc.U64(uint64(e.epochLen))
	enc.U64(uint64(e.cfg.K))
	enc.String(e.matcher.Name())
	enc.String(e.programSignature())
	// The fingerprint renders the whole adversary configuration —
	// strategy names plus the parameters names omit (patch centers,
	// attack windows), recursively through the wrappers.
	enc.String(adversary.FingerprintOf(e.adv))
	enc.Bool(e.xproto != nil)
	enc.Bool(e.sp != nil)
	enc.Bool(progState != nil)
	enc.Bool(advStateful)
	enc.End()

	enc.Begin(tagEngine)
	enc.U64(e.round)
	for _, w := range e.schedSrc.State() {
		enc.U64(w)
	}
	for _, w := range e.advSrc.State() {
		enc.U64(w)
	}
	enc.End()

	enc.Begin(tagPopulation)
	e.pop.EncodeState(enc)
	enc.End()

	if e.sp != nil {
		enc.Begin(tagMatcher)
		e.sp.EncodeState(enc)
		enc.End()
	}
	if progState != nil {
		enc.Begin(tagProgram)
		progState.EncodeState(enc)
		enc.End()
	}
	if advStateful {
		enc.Begin(tagAdversary)
		adversary.EncodeState(e.adv, enc)
		enc.End()
	}
	return enc.Finish()
}

// Restore reinstates a snapshot taken from an engine built from the same
// configuration (same seed, parameters, matcher, program shape, and
// adversary). On success the engine continues exactly where the
// snapshotted one would have: every subsequent round is bit-identical, for
// every worker count — Workers remains a pure throughput knob across the
// snapshot boundary. On error the engine must be discarded (a partial
// restore is not rolled back).
func (e *Engine) Restore(data []byte) error {
	d, err := wire.NewDec(data)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	progState := e.programCodec()
	advStateful := adversary.HasState(e.adv)

	d.Begin(tagIdentity)
	seed := d.U64()
	n := d.U64()
	epochLen := d.U64()
	k := d.U64()
	matcherName := d.String()
	progSig := d.String()
	advName := d.String()
	extended := d.Bool()
	hasMatcher := d.Bool()
	hasProg := d.Bool()
	hasAdv := d.Bool()
	d.End()
	if err := d.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch {
	case seed != e.cfg.Seed:
		return fmt.Errorf("sim: snapshot seed %d, engine built with %d", seed, e.cfg.Seed)
	case int(n) != e.cfg.Params.N:
		return fmt.Errorf("sim: snapshot N %d, engine built with %d", n, e.cfg.Params.N)
	case int(epochLen) != e.epochLen:
		return fmt.Errorf("sim: snapshot epoch length %d, engine has %d", epochLen, e.epochLen)
	case int(k) != e.cfg.K:
		return fmt.Errorf("sim: snapshot budget K %d, engine has %d", k, e.cfg.K)
	case matcherName != e.matcher.Name():
		return fmt.Errorf("sim: snapshot matcher %q, engine has %q", matcherName, e.matcher.Name())
	case progSig != e.programSignature():
		return fmt.Errorf("sim: snapshot program %q, engine runs %q", progSig, e.programSignature())
	case advName != adversary.FingerprintOf(e.adv):
		return fmt.Errorf("sim: snapshot adversary %q, engine has %q", advName, adversary.FingerprintOf(e.adv))
	case extended != (e.xproto != nil):
		return fmt.Errorf("sim: snapshot program shape (extended=%v) does not match engine", extended)
	case hasMatcher != (e.sp != nil):
		return fmt.Errorf("sim: snapshot matcher-state presence does not match engine")
	case hasProg != (progState != nil):
		return fmt.Errorf("sim: snapshot program-state presence does not match engine")
	case hasAdv != advStateful:
		return fmt.Errorf("sim: snapshot adversary-state presence does not match engine")
	}

	d.Begin(tagEngine)
	round := d.U64()
	var sst, ast [4]uint64
	for i := range sst {
		sst[i] = d.U64()
	}
	for i := range ast {
		ast[i] = d.U64()
	}
	d.End()
	if err := d.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	d.Begin(tagPopulation)
	if err := e.pop.DecodeState(d); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	d.End()

	if e.sp != nil {
		d.Begin(tagMatcher)
		if err := e.sp.DecodeState(d); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		d.End()
	}
	if progState != nil {
		d.Begin(tagProgram)
		if err := progState.DecodeState(d); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		d.End()
	}
	if advStateful {
		d.Begin(tagAdversary)
		if err := adversary.DecodeState(e.adv, d); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		d.End()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	// Cross-component alignment: every side-array restored from the
	// snapshot — positions, rogue tags, any future tracker — must agree
	// with the population (a crafted or mixed-up document whose sections
	// decode cleanly individually fails here, not as a panic mid-round).
	if err := e.pop.CheckAligned(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	e.round = round
	e.schedSrc.SetState(sst)
	e.advSrc.SetState(ast)
	return nil
}
