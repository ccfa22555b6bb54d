// Package fault is the failure-injection seam of the serving stack: a
// registry of named failure points that production code consults at the
// exact places where the real world can go wrong (a snapshot that cannot
// encode, a checkpoint write that hits a full disk, a runner goroutine that
// panics, a step or session build that stalls). In production the registry
// is nil and every consultation is a nil-receiver no-op; chaos tests arm
// points on a private Set and then assert the system's invariants — no
// leaked pool slots or goroutines, a coherent dedupe cache, bit-identical
// recovery — under the injected failures.
//
// The design deliberately avoids package-global state: a Set is plumbed
// through configuration (serve.Config.Faults, FSStore.Faults), so parallel
// tests cannot observe each other's injections and the production fast path
// is a nil check.
package fault

import (
	"fmt"
	"sync"
	"time"
)

// Point names one injectable failure site. The catalog below is the
// complete set production code consults; tests arm a subset per scenario.
type Point string

// The failure-point catalog.
const (
	// SnapshotEncode fails the manager's session-snapshot capture before a
	// checkpoint is encoded (the in-memory half of a checkpoint write).
	SnapshotEncode Point = "snapshot-encode"
	// CheckpointWrite fails the durable checkpoint write. FSStore fires it
	// after the temp file is written but before the atomic rename, so an
	// injected failure models a crash mid-write: the previous checkpoint
	// must survive untouched.
	CheckpointWrite Point = "checkpoint-write"
	// RunnerPanic panics a job's runner goroutine inside a step quantum.
	RunnerPanic Point = "runner-panic"
	// SlowStep delays a step quantum (armed with a duration, no error):
	// the latency-injection point deadline tests lean on.
	SlowStep Point = "slow-step"
	// SessionBuild fails or holds a job's session build (construct or
	// restore) before the engine exists — the point ordering tests hold so
	// a caller can act while the job is still queued.
	SessionBuild Point = "session-build"
)

// Set is an armable collection of failure points. The zero value is not
// used; create with NewSet. A nil *Set is valid everywhere and never
// fires — production code passes nil through configuration and pays only
// the nil check.
type Set struct {
	mu    sync.Mutex
	arms  map[Point]*arm
	fired map[Point]uint64
}

// arm is one armed failure point.
type arm struct {
	remaining int // fires left; < 0 means unlimited
	err       error
	delay     time.Duration
	hold      <-chan struct{} // blocks the consultation until closed
}

// NewSet returns an empty, unarmed set.
func NewSet() *Set {
	return &Set{arms: make(map[Point]*arm), fired: make(map[Point]uint64)}
}

// Arm schedules p to fail times times (times < 0: until Disarm) with err
// (nil: a generic injected-failure error). Re-arming replaces the previous
// schedule.
func (s *Set) Arm(p Point, times int, err error) {
	if err == nil {
		err = fmt.Errorf("fault: injected failure at %s", p)
	}
	s.arm(p, &arm{remaining: times, err: err})
}

// ArmDelay schedules p to sleep d for the next times consultations without
// failing them — latency injection rather than error injection.
func (s *Set) ArmDelay(p Point, times int, d time.Duration) {
	s.arm(p, &arm{remaining: times, delay: d})
}

// ArmHold blocks the next times consultations of p until release is closed,
// without failing them — the deterministic form of ArmDelay: the test, not
// a clock, decides when the held code proceeds.
func (s *Set) ArmHold(p Point, times int, release <-chan struct{}) {
	s.arm(p, &arm{remaining: times, hold: release})
}

func (s *Set) arm(p Point, a *arm) {
	if a.remaining == 0 {
		s.Disarm(p)
		return
	}
	s.mu.Lock()
	s.arms[p] = a
	s.mu.Unlock()
}

// Disarm removes any schedule for p. Fired counts are kept.
func (s *Set) Disarm(p Point) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.arms, p)
	s.mu.Unlock()
}

// Fire is the production-side consultation: it reports the injected error
// for p, consuming one charge, or nil when p is unarmed (always nil on a
// nil Set). A delay-armed point sleeps, and a hold-armed point blocks until
// released, before returning its (typically nil) error, so latency and
// failure injection share one call site.
func (s *Set) Fire(p Point) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	a := s.arms[p]
	if a == nil {
		s.mu.Unlock()
		return nil
	}
	if a.remaining > 0 {
		a.remaining--
		if a.remaining == 0 {
			delete(s.arms, p)
		}
	}
	s.fired[p]++
	delay, hold, err := a.delay, a.hold, a.err
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hold != nil {
		<-hold
	}
	return err
}

// Fired reports how many times p has fired since the set was created
// (0 on a nil Set) — the observability hook chaos tests assert against.
func (s *Set) Fired(p Point) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[p]
}
