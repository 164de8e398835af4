package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkOnce runs one batch and reports any index not run exactly once.
func checkOnce(t *testing.T, p *Pool, n, par, minParallel int) {
	counts := make([]atomic.Int32, n)
	p.ForEach(n, par, minParallel, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("n=%d par=%d: index %d ran %d times", n, par, i, c)
			return
		}
	}
}

// TestForEachRunsEveryIndexOnce covers both sides of the inline cutoff
// and every parallelism up to one past the helpers the pool has grown
// to, including batches narrower than the pool after it has grown.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const minParallel = 32
	var p Pool
	grown := 0
	for _, par := range []int{1, 2, 3, 5, 8, 9, 4, 1, 9} {
		for _, n := range []int{0, 1, minParallel - 1, minParallel, minParallel + 1, 1000} {
			checkOnce(t, &p, n, par, minParallel)
		}
		grown = max(grown, par-1)
		helpers := 0
		if p.b != nil {
			helpers = p.b.helpers
		}
		if helpers != grown {
			t.Fatalf("after par=%d: %d helpers, want %d", par, helpers, grown)
		}
	}
}

// TestForEachConcurrentBatches submits from two goroutines at once: the
// pool must run the batches one after the other, never mixing them.
func TestForEachConcurrentBatches(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				checkOnce(t, &p, 200, 4, 0)
			}
		}()
	}
	wg.Wait()
}

// TestParkedHelpersDoNotPinOwner: a controller embedding a Pool must be
// collectable once dropped, although the pool's helpers stay parked.
func TestParkedHelpersDoNotPinOwner(t *testing.T) {
	type owner struct {
		wp    Pool
		state [1 << 16]byte
	}
	collected := make(chan struct{})
	func() {
		o := &owner{}
		o.wp.ForEach(64, 4, 0, func(i int) { o.state[i]++ })
		runtime.SetFinalizer(o, func(*owner) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("owner still reachable after its parallel batch: the parked helpers pin it")
}
