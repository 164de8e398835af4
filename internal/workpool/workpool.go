// Package workpool is the repository's one parallel-for: the persistent
// work-stealing pool the State Syncer's rounds, the Task Service's group
// rebuilds and the Auto Scaler's scans all fan per-job work out on.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism is the fan-out a controller uses when none is
// configured: GOMAXPROCS, capped at 16.
func DefaultParallelism() int {
	return min(runtime.GOMAXPROCS(0), 16)
}

// Pool runs batches of fn(i) for every i in [0, n), indices stolen off a
// shared atomic counter so items of uneven cost balance across workers.
// The caller's goroutine works too, so a batch at parallelism par uses
// par-1 helpers. Helper goroutines are spawned on the first batch that
// needs them and then park on a channel receive between batches: the
// ad-hoc alternative, goroutines per batch, allocates a closure and a
// stack per worker every round, which a controller running on a timer
// over a large fleet cannot afford. Dispatching a batch allocates nothing.
//
// The zero Pool is ready to use. Batches run one at a time under the
// pool's mutex, so several goroutines may share a Pool; fn must not
// submit a batch to the Pool that is running it. The helpers live as
// long as the process, but they reference only the pool's batch state,
// never the Pool itself: a Pool embedded in a controller does not keep
// the controller reachable once it is dropped.
type Pool struct {
	mu sync.Mutex
	b  *batch // created by the first parallel batch
}

// batch is the state the helpers share with the submitting goroutine.
type batch struct {
	next    atomic.Int64
	n       int64
	fn      func(int)
	helpers int
	start   chan struct{}
	done    chan struct{}
}

// ForEach runs fn(i) for every i in [0, n) on up to par workers and
// returns when all have finished. Batches of fewer than minParallel items
// run inline on the caller: fan-out only pays for itself on large
// batches or slow (I/O-bound) items.
func (p *Pool) ForEach(n, par, minParallel int, fn func(int)) {
	par = min(par, n)
	if par <= 1 || n < minParallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.b == nil {
		p.b = &batch{start: make(chan struct{}), done: make(chan struct{})}
	}
	b := p.b
	for ; b.helpers < par-1; b.helpers++ {
		go b.worker()
	}
	// The start/done handoffs order these batch-field writes against the
	// helpers' reads.
	b.n = int64(n)
	b.fn = fn
	b.next.Store(0)
	for i := 0; i < par-1; i++ {
		b.start <- struct{}{}
	}
	b.steal()
	for i := 0; i < par-1; i++ {
		<-b.done
	}
	b.fn = nil // the helpers outlive fn's owner; do not pin it
}

func (b *batch) worker() {
	for range b.start {
		b.steal()
		b.done <- struct{}{}
	}
}

func (b *batch) steal() {
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
	}
}
