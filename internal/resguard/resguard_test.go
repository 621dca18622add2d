package resguard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mce/internal/telemetry"
)

func TestNilGuardIsFree(t *testing.T) {
	var g *Guard
	done := make(chan struct{})
	g.Enter(done) // must not panic or block
	g.Exit()
	if New(0, nil) != nil || New(-1, nil) != nil {
		t.Fatal("non-positive budget must return a nil guard")
	}
}

func TestUnderBudgetNeverBlocks(t *testing.T) {
	g := New(1<<62, nil) // effectively unlimited
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Enter(done)
				g.Exit()
			}
		}()
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(10 * time.Second):
		t.Fatal("guard blocked under budget")
	}
}

// TestSoleRunnerProceedsOverBudget pins the liveness guarantee: with a
// budget far below the live heap, a lone worker is admitted immediately and
// a second worker is admitted as soon as the first exits.
func TestSoleRunnerProceedsOverBudget(t *testing.T) {
	g := New(1, nil) // 1 byte: always over budget
	done := make(chan struct{})

	g.Enter(done) // sole runner: must not block
	var second atomic.Bool
	released := make(chan struct{})
	go func() {
		g.Enter(done)
		second.Store(true)
		g.Exit()
		close(released)
	}()
	// The second worker must stay paused while the first runs.
	time.Sleep(4 * pollInterval)
	if second.Load() {
		t.Fatal("second worker admitted while over budget with one running")
	}
	g.Exit() // first finishes; the waiter becomes the sole runner
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter not admitted after the sole runner exited")
	}
}

func TestDoneAbortsWait(t *testing.T) {
	g := New(1, nil)
	done := make(chan struct{})
	g.Enter(done) // occupy the sole-runner slot
	aborted := make(chan struct{})
	go func() {
		g.Enter(done)
		g.Exit()
		close(aborted)
	}()
	time.Sleep(2 * pollInterval)
	close(done)
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("done did not abort the backpressure wait")
	}
	g.Exit()
}

func TestBackpressureTelemetry(t *testing.T) {
	met := telemetry.NewEngine()
	g := New(1, met)
	done := make(chan struct{})
	g.Enter(done)
	release := make(chan struct{})
	go func() {
		g.Enter(done)
		g.Exit()
		close(release)
	}()
	time.Sleep(3 * pollInterval)
	g.Exit()
	<-release
	if met.Load(telemetry.BackpressurePauses) == 0 {
		t.Fatal("BackpressurePauses not counted")
	}
	if met.Load(telemetry.BackpressureNs) == 0 {
		t.Fatal("BackpressureNs not counted")
	}
}
