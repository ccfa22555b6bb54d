package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRange checks every index is visited exactly once, for shard
// counts straddling the inline and pooled paths.
func TestRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 5, 1000, 4096, 10001} {
			var hits = make([]int32, n)
			p.Run(n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestRunGrain checks the shard count respects the minimum grain.
func TestRunGrain(t *testing.T) {
	p := New(8)
	defer p.Close()
	if got := p.Shards(100, 64); got != 1 {
		t.Fatalf("Shards(100, 64) = %d, want 1 (grain bound)", got)
	}
	if got := p.Shards(1<<20, 1024); got != 8 {
		t.Fatalf("Shards(1<<20, 1024) = %d, want 8 (worker bound)", got)
	}
	if got := p.Shards(3000, 1024); got != 2 {
		t.Fatalf("Shards(3000, 1024) = %d, want 2", got)
	}
}

// TestRunNFansOut checks every shard index runs exactly once.
func TestRunNFansOut(t *testing.T) {
	p := New(4)
	defer p.Close()
	var hits [16]int32
	p.RunN(len(hits), func(k int) { atomic.AddInt32(&hits[k], 1) })
	for k, h := range hits {
		if h != 1 {
			t.Fatalf("shard %d ran %d times", k, h)
		}
	}
}

// TestRunNWiderThanPool pins that fanning out past the pool's parallelism
// completes instead of deadlocking — a caller may submit more shards than
// Workers, and a pool of 1 spawns no drainer goroutines at all, so RunN
// must fall back to inline execution there and queue the excess elsewhere.
func TestRunNWiderThanPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := New(workers)
		defer p.Close()
		var hits [64]int32 // far beyond the jobs buffer (8×workers)
		p.RunN(len(hits), func(k int) { atomic.AddInt32(&hits[k], 1) })
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, k, h)
			}
		}
	}
}

// TestConcurrentRuns checks two goroutines can share one pool (the overlap
// structure: matching on the caller, compose on the aux goroutine, both
// sharding into the same pool).
func TestConcurrentRuns(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 1 << 16
	a := make([]int32, n)
	b := make([]int32, n)
	for iter := 0; iter < 50; iter++ {
		wait := p.Go(func() {
			p.Run(n, 1024, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a[i]++
				}
			})
		})
		p.Run(n, 1024, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b[i]++
			}
		})
		wait()
	}
	for i := 0; i < n; i++ {
		if a[i] != 50 || b[i] != 50 {
			t.Fatalf("index %d: a=%d b=%d, want 50/50", i, a[i], b[i])
		}
	}
}

// TestGoInlineWhenSerial checks Go on a 1-worker pool runs inline, before
// the call returns.
func TestGoInlineWhenSerial(t *testing.T) {
	p := New(1)
	defer p.Close()
	ran := false
	wait := p.Go(func() { ran = true })
	if !ran {
		t.Fatal("Go on a serial pool did not run inline")
	}
	wait()
}

// TestClosedPoolRunsInline checks a closed pool degrades to inline
// execution instead of deadlocking.
func TestClosedPoolRunsInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	sum := 0
	p.Run(100, 1, func(lo, hi int) { sum += hi - lo })
	if sum != 100 {
		t.Fatalf("closed-pool Run covered %d of 100", sum)
	}
	ran := false
	p.Go(func() { ran = true })()
	if !ran {
		t.Fatal("closed-pool Go did not run")
	}
	hits := 0
	p.RunN(3, func(k int) { hits++ })
	if hits != 3 {
		t.Fatalf("closed-pool RunN ran %d of 3 shards", hits)
	}
}

// TestCloseParksWorkers checks Close returns the process to its baseline
// goroutine count — the pool must not leak parked workers.
func TestCloseParksWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.Run(1<<16, 1024, func(lo, hi int) {}) }()
	wg.Wait()
	p.Go(func() {})()
	if g := runtime.NumGoroutine(); g <= base {
		t.Fatalf("expected spawned workers, goroutines %d <= baseline %d", g, base)
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline %d after Close (now %d)",
				base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
