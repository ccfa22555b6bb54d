package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilSetNeverFires(t *testing.T) {
	var s *Set
	if err := s.Fire(RunnerPanic); err != nil {
		t.Fatalf("nil set fired: %v", err)
	}
	if got := s.Fired(RunnerPanic); got != 0 {
		t.Fatalf("nil set counted %d fires", got)
	}
	s.Disarm(RunnerPanic) // must not panic
}

func TestArmConsumesCharges(t *testing.T) {
	s := NewSet()
	want := errors.New("boom")
	s.Arm(CheckpointWrite, 2, want)
	for i := 0; i < 2; i++ {
		if err := s.Fire(CheckpointWrite); !errors.Is(err, want) {
			t.Fatalf("fire %d: %v, want %v", i, err, want)
		}
	}
	if err := s.Fire(CheckpointWrite); err != nil {
		t.Fatalf("exhausted point still fires: %v", err)
	}
	if got := s.Fired(CheckpointWrite); got != 2 {
		t.Fatalf("fired count %d, want 2", got)
	}
}

func TestUnlimitedAndDisarm(t *testing.T) {
	s := NewSet()
	s.Arm(RunnerPanic, -1, nil)
	for i := 0; i < 5; i++ {
		if err := s.Fire(RunnerPanic); err == nil {
			t.Fatalf("unlimited arm did not fire on %d", i)
		}
	}
	s.Disarm(RunnerPanic)
	if err := s.Fire(RunnerPanic); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if got := s.Fired(RunnerPanic); got != 5 {
		t.Fatalf("fired count %d, want 5", got)
	}
}

func TestDefaultErrorNamesPoint(t *testing.T) {
	s := NewSet()
	s.Arm(SnapshotEncode, 1, nil)
	err := s.Fire(SnapshotEncode)
	if err == nil || !contains(err.Error(), string(SnapshotEncode)) {
		t.Fatalf("default error %v does not name the point", err)
	}
}

func TestArmZeroTimesIsDisarm(t *testing.T) {
	s := NewSet()
	s.Arm(RunnerPanic, -1, nil)
	s.Arm(RunnerPanic, 0, nil)
	if err := s.Fire(RunnerPanic); err != nil {
		t.Fatalf("zero-times arm left the point armed: %v", err)
	}
}

func TestDelayInjection(t *testing.T) {
	s := NewSet()
	s.ArmDelay(SlowStep, 1, 30*time.Millisecond)
	start := time.Now()
	if err := s.Fire(SlowStep); err != nil {
		t.Fatalf("delay arm returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("fire returned after %v, want >= 30ms", d)
	}
	if err := s.Fire(SlowStep); err != nil {
		t.Fatal("delay charge not consumed")
	}
}

func TestHoldInjection(t *testing.T) {
	s := NewSet()
	release := make(chan struct{})
	s.ArmHold(SessionBuild, 1, release)
	done := make(chan error)
	go func() { done <- s.Fire(SessionBuild) }()
	select {
	case err := <-done:
		t.Fatalf("held point returned before release: %v", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("hold arm returned error: %v", err)
	}
	if err := s.Fire(SessionBuild); err != nil {
		t.Fatal("hold charge not consumed")
	}
	if got := s.Fired(SessionBuild); got != 1 {
		t.Fatalf("fired count %d, want 1", got)
	}
}

func TestConcurrentFire(t *testing.T) {
	s := NewSet()
	s.Arm(RunnerPanic, 100, nil)
	var wg sync.WaitGroup
	var hits sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := 0; i < 50; i++ {
				if s.Fire(RunnerPanic) != nil {
					n++
				}
			}
			hits.Store(g, n)
		}(g)
	}
	wg.Wait()
	total := 0
	hits.Range(func(_, v any) bool { total += v.(int); return true })
	if total != 100 {
		t.Fatalf("%d total fires across goroutines, want exactly 100", total)
	}
	if got := s.Fired(RunnerPanic); got != 100 {
		t.Fatalf("fired count %d, want 100", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
