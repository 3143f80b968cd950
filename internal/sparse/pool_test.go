package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolFixture is a small random system for pool tests: the matrix, an input
// vector, and the serial product every pooled Run must reproduce exactly.
func poolFixture() (m *CSR, x, want []float64) {
	m = benchCSR(500, 9)
	x = make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	want = make([]float64, m.NRows)
	m.MulVec(want, x)
	return m, x, want
}

// runExact runs op over bounds on p and fails unless op.Dst matches want.
func runExact(t *testing.T, p *Pool, bounds []int32, r Runner, op *MatVec, want []float64) {
	t.Helper()
	for i := range op.Dst {
		op.Dst[i] = -1
	}
	p.Run(bounds, r)
	for i := range want {
		if op.Dst[i] != want[i] {
			t.Fatalf("workers=%d chunks=%d: dst[%d]=%g want %g", p.Workers(), len(bounds)-1, i, op.Dst[i], want[i])
		}
	}
}

// waitParked blocks until every gang member of p has parked.
func waitParked(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.wake != nil && p.parked.Load() != int32(p.Workers()-1) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d gang members parked", p.parked.Load(), p.Workers()-1)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it is at most base,
// or after a second. A member releases Close just before it returns, so it
// can still be counted for the few instructions between the two; whether
// Close joined the gang is checked on the live count, with no settling.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// within runs f and crashes the test binary if f has not returned after d:
// a lost wakeup or a starved spinner shows up as a hang, and this turns the
// hang into a failure naming the test instead of a ten-minute timeout.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	name := t.Name()
	watchdog := time.AfterFunc(d, func() {
		panic(fmt.Sprintf("%s: still running after %v: a pool handoff hangs", name, d))
	})
	defer watchdog.Stop()
	f()
}

// gangBarrier is a MatVec whose chunks wait until all of them have started,
// so a Run with one chunk per worker completes only if every gang member
// joined it: a member left parked by a lost wakeup hangs the Run.
type gangBarrier struct {
	MatVec
	chunks  int32
	arrived atomic.Int32
}

func (o *gangBarrier) RunRange(lo, hi int) {
	o.arrived.Add(1)
	for o.arrived.Load() < o.chunks {
		runtime.Gosched()
	}
	o.MatVec.RunRange(lo, hi)
}

func TestPoolRun(t *testing.T) {
	base := runtime.NumGoroutine()
	m, x, want := poolFixture()
	for _, workers := range []int{1, 2, 4} {
		// Close right after the last Run finds the gang spinning; after
		// waitParked, blocked on the wake channel.
		for _, closeParked := range []bool{false, true} {
			p := NewPool(workers)
			op := &MatVec{M: m, Dst: make([]float64, m.NRows), X: x}
			// Repeated Runs through the same pool, varying chunk counts.
			for _, parts := range []int{1, 2, 7, 16} {
				runExact(t, p, PartitionByWork(m.RowPtr, 0, m.NRows, parts), op, op, want)
			}
			if closeParked {
				waitParked(t, p)
			}
			within(t, time.Minute, p.Close)
			// Close returns only after every member has left its loop.
			if n := p.live.Load(); n != 0 {
				t.Fatalf("workers=%d closeParked=%v: %d gang members still live when Close returned", workers, closeParked, n)
			}
			// And none of them leaks.
			if got := settledGoroutines(base); got > base {
				t.Fatalf("workers=%d closeParked=%v: %d goroutines after Close, want the baseline %d", workers, closeParked, got, base)
			}
			// A closed pool still runs, serially.
			runExact(t, p, PartitionByWork(m.RowPtr, 0, m.NRows, 7), op, op, want)
			p.Close()
		}
	}
}

// TestPoolRunRejectsTooManyChunks checks that a Run whose chunk count does
// not fit the dispatch word panics instead of corrupting the epoch.
func TestPoolRunRejectsTooManyChunks(t *testing.T) {
	bounds := make([]int32, maxChunks+2)
	for i := range bounds {
		bounds[i] = int32(i)
	}
	p := NewPool(2)
	defer within(t, time.Minute, p.Close)
	defer func() {
		if recover() == nil {
			t.Fatal("Run with more than maxChunks chunks did not panic")
		}
	}()
	p.Run(bounds, &nopRunner{})
}

// TestPoolNoLostWakeup drives about a thousand Runs separated by idle gaps
// on both sides of the spin budget — back to back, short busy gaps, sleeps,
// and waits until the whole gang has parked — so members are caught
// spinning, mid-park, and parked. Every Run has one chunk per worker behind
// a barrier, so it completes only if every member was reached.
func TestPoolNoLostWakeup(t *testing.T) {
	const workers = 3
	m, x, want := poolFixture()
	p := NewPool(workers)
	defer within(t, time.Minute, p.Close)
	op := &gangBarrier{MatVec: MatVec{M: m, Dst: make([]float64, m.NRows), X: x}}
	bounds := PartitionByWork(m.RowPtr, 0, m.NRows, workers)
	op.chunks = int32(len(bounds) - 1)
	rng := rand.New(rand.NewSource(7))
	var sink int
	within(t, time.Minute, func() {
		for i := 0; i < 1000; i++ {
			switch i % 4 {
			case 1: // busy gap, mostly shorter than the spin budget
				for j := rng.Intn(1 << 16); j > 0; j-- {
					sink += j
				}
			case 2: // sleep, mostly longer than the spin budget
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			case 3:
				waitParked(t, p)
			}
			op.arrived.Store(0)
			runExact(t, p, bounds, op, &op.MatVec, want)
		}
	})
	_ = sink
}

// TestPoolLiveness checks that spinning never starves the goroutine it
// waits on: a gang larger than GOMAXPROCS, and two pools competing for two
// processors, both finish.
func TestPoolLiveness(t *testing.T) {
	m, x, want := poolFixture()
	t.Run("oversubscribed", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		p := NewPool(4)
		defer within(t, time.Minute, p.Close)
		op := &gangBarrier{MatVec: MatVec{M: m, Dst: make([]float64, m.NRows), X: x}}
		barrier := PartitionByWork(m.RowPtr, 0, m.NRows, 4)
		op.chunks = int32(len(barrier) - 1)
		many := PartitionByWork(m.RowPtr, 0, m.NRows, 16)
		within(t, time.Minute, func() {
			for i := 0; i < 200; i++ {
				runExact(t, p, many, &op.MatVec, &op.MatVec, want)
				op.arrived.Store(0)
				runExact(t, p, barrier, op, &op.MatVec, want)
			}
		})
	})
	t.Run("concurrent-pools", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		bounds := PartitionByWork(m.RowPtr, 0, m.NRows, 8)
		within(t, time.Minute, func() {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := NewPool(2)
					defer p.Close()
					op := &MatVec{M: m, Dst: make([]float64, m.NRows), X: x}
					for i := 0; i < 500; i++ {
						p.Run(bounds, op)
						for r := range want {
							if op.Dst[r] != want[r] {
								t.Errorf("pool %d run %d: dst[%d]=%g want %g", g, i, r, op.Dst[r], want[r])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	})
}

// TestPoolIdleGangStaysParked checks that a pool whose Runs never fan out
// never wakes its gang: the members start parked and, with no token ever
// sent, stay blocked on the wake channel instead of spinning.
func TestPoolIdleGangStaysParked(t *testing.T) {
	m, x, want := poolFixture()
	p := NewPool(4)
	defer within(t, time.Minute, p.Close)
	op := &MatVec{M: m, Dst: make([]float64, m.NRows), X: x}
	single := []int32{0, int32(m.NRows)}
	for i := 0; i < 100; i++ {
		runExact(t, p, single, op, op, want)
		p.Run(nil, op)
	}
	time.Sleep(time.Millisecond)
	if w := p.word.Load(); w != 0 {
		t.Fatalf("dispatch word %#x after single-chunk Runs, want untouched", w)
	}
	if got, want := p.parked.Load(), int32(p.Workers()-1); got != want || len(p.wake) != 0 {
		t.Fatalf("%d of %d gang members parked, %d pending wakes: want all parked with none", got, want, len(p.wake))
	}
}
