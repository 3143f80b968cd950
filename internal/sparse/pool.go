package sparse

import (
	"runtime"
	"sync/atomic"
)

// Runner is a parallel kernel over contiguous index chunks. It is an
// interface rather than a func so a caller can dispatch a preallocated op
// struct through a Pool without allocating a closure per call — the
// requirement of the allocation-free solver hot loops.
type Runner interface {
	// RunRange processes indices [lo, hi).
	RunRange(lo, hi int)
}

// The dispatch word packs one Run's whole claimable state into a uint64 so
// a single CAS claims a chunk: bit 63 marks a closed pool, bits 32–62 hold
// the Run's epoch, bits 16–31 its chunk count and bits 0–15 the cursor of
// the next unclaimed chunk.
const (
	chunkBits  = 16
	maxChunks  = 1<<chunkBits - 1
	epochShift = 2 * chunkBits
	epochMask  = 1<<31 - 1
	closedBit  = 1 << 63
)

// epochOf extracts the epoch from a dispatch word.
func epochOf(w uint64) uint32 { return uint32(w>>epochShift) & epochMask }

const (
	// spinPolls is how many times an idle gang member polls the dispatch
	// word after its last Run before it parks. A poll count rather than a
	// wall-clock budget keeps the kernel package free of time sources.
	// Measured on the 12×12 hotspot solve (2-vCPU x86_64), it spans
	// 36–47 µs; the solve issues ~4 600 Runs, 98 % of the gaps between
	// them are shorter than that (median 0.3 µs, max 0.35 ms), and members
	// park in the ~85 longer ones.
	spinPolls = 1 << 14
	// yieldPolls is how often a spinning goroutine — an idle member or the
	// caller awaiting completion — yields its processor, so an
	// oversubscribed gang still lets the goroutine it waits on run.
	yieldPolls = 256
)

// Pool is a resident gang of worker goroutines for repeated parallel
// kernels. Spawning goroutines per operation allocates (closures, stacks)
// and that cost recurs every iteration of an iterative solver; a Pool pays
// it once. A Pool serves one Run at a time — it is meant to be owned by a
// single solve (via solver.Workspace), not shared. Close releases the
// goroutines and returns once they have exited.
//
// Dispatch is a lock-free handoff: Run publishes its chunks under a fresh
// epoch in one atomic word, and the caller and the gang claim chunks off
// it by CAS. Members spin on the word for spinPolls polls after a Run, so
// the back-to-back level dispatches of a triangular solve reach them
// without a wakeup, then park on the wake channel until the next Run. A
// pool whose Runs never fan out never wakes its gang.
type Pool struct {
	workers int
	epoch   uint32 // last published epoch; touched by the caller only

	// wake carries one token per woken member; nil for a serial or closed
	// pool. parked counts the members blocked (or about to block) on wake
	// that no token is owed to yet. A Run or Close that decrements it by
	// CAS owes one token and sends it; a parking member that finds work on
	// its recheck decrements it itself and owes nothing. Every decrement
	// thus matches one receive, so wake never holds more than workers−1
	// tokens and no parked member is left behind.
	wake   chan struct{}
	parked atomic.Int32

	// bounds and r are the current Run's chunks and kernel. A member reads
	// them only after claiming a chunk, and Run returns only once every
	// claimed chunk is done, so the next Run's writes never race a reader.
	bounds []int32
	r      Runner
	word   atomic.Uint64 // the dispatch word (see chunkBits)
	done   atomic.Int32  // completed chunks of the current Run

	// live counts the gang members still in their loop. The last one to
	// leave closes gone, which Close waits on, so a closed pool leaves no
	// member behind.
	live atomic.Int32
	gone chan struct{}
}

// NewPool creates a pool with the given total parallelism: workers−1
// resident goroutines plus the calling goroutine, which participates in
// every Run. workers ≤ 1 creates a degenerate pool whose Run executes
// serially (no goroutines are started). The goroutines start parked.
//
//stressvet:gang -- workers-1 resident pool goroutines, reused by every Run and joined on Close
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.wake = make(chan struct{}, workers-1)
		p.parked.Store(int32(workers - 1))
		p.live.Store(int32(workers - 1))
		p.gone = make(chan struct{})
		for i := 0; i < workers-1; i++ {
			// The channel travels as an argument so the goroutine never
			// reads the struct field, which Close overwrites.
			go p.worker(p.wake)
		}
	}
	return p
}

// Workers returns the pool's total parallelism (gang + caller).
func (p *Pool) Workers() int { return p.workers }

// worker is one gang member's loop: park until woken, then serve every new
// epoch it sees while spinning, and park again once spinPolls polls pass
// with no new Run.
//
//stressvet:noalloc
func (p *Pool) worker(wake <-chan struct{}) {
	defer p.leave()
	<-wake
	var seen uint32 // epoch of the last Run this member looked at
	for idle := 0; ; {
		w := p.word.Load()
		if w&closedBit != 0 {
			return
		}
		if e := epochOf(w); e != seen {
			seen = e
			p.drain(w)
			idle = 0
			continue
		}
		if idle++; idle%yieldPolls == 0 {
			runtime.Gosched()
		}
		if idle < spinPolls {
			continue
		}
		// Park. Counting in before rechecking the word means a Run that
		// stored its epoch before seeing the count is caught here, and one
		// that stores after sees the count and sends a token.
		idle = 0
		p.parked.Add(1)
		if w := p.word.Load(); (w&closedBit != 0 || epochOf(w) != seen) && p.unpark() {
			continue // counted back out: no token is owed to this member
		}
		<-wake
	}
}

// leave takes a returning member off the live count; the last one out
// releases Close.
//
//stressvet:noalloc
func (p *Pool) leave() {
	if p.live.Add(-1) == 0 {
		close(p.gone)
	}
}

// unpark takes one member off the parked count, reporting false when none
// is left to take.
//
//stressvet:noalloc
func (p *Pool) unpark() bool {
	for {
		c := p.parked.Load()
		if c == 0 {
			return false
		}
		if p.parked.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

// drain claims and runs chunks of the Run published as w until none is
// left. A claim is a CAS of the whole word, so it fails once the epoch has
// moved on and a late member can never run a chunk of a finished Run.
//
//stressvet:noalloc
func (p *Pool) drain(w uint64) {
	for {
		n, next := int(w>>chunkBits&maxChunks), int(w&maxChunks)
		if next >= n {
			return
		}
		if !p.word.CompareAndSwap(w, w+1) {
			cur := p.word.Load()
			if cur>>epochShift != w>>epochShift {
				return
			}
			w = cur
			continue
		}
		p.r.RunRange(int(p.bounds[next]), int(p.bounds[next+1]))
		p.done.Add(1)
		w++
	}
}

// Run executes r over each [bounds[i], bounds[i+1]) chunk, distributing
// chunks across the gang and returning when every chunk has completed. The
// calling goroutine is a full participant: it claims chunks like any
// member, so a Run with many more chunks than workers gets the gang's full
// parallelism plus the caller, and a Run the gang is too slow to join
// completes on the caller alone. bounds may hold at most 65 535 chunks. It
// performs no allocation.
//
//stressvet:noalloc
func (p *Pool) Run(bounds []int32, r Runner) {
	n := len(bounds) - 1
	if n < 1 {
		return
	}
	if p.wake == nil || n == 1 {
		for i := 0; i < n; i++ {
			r.RunRange(int(bounds[i]), int(bounds[i+1]))
		}
		return
	}
	if n > maxChunks {
		panic("sparse: Pool.Run given more than 65535 chunks")
	}
	p.bounds, p.r = bounds, r
	p.done.Store(0)
	p.epoch = (p.epoch + 1) & epochMask
	w := uint64(p.epoch)<<epochShift | uint64(n)<<chunkBits
	p.word.Store(w)
	// Wake parked members, at most one per chunk beyond the caller's own.
	for i := 1; i < n && p.unpark(); i++ {
		p.wake <- struct{}{}
	}
	p.drain(w)
	for polls := 1; p.done.Load() != int32(n); polls++ {
		if polls%yieldPolls == 0 {
			runtime.Gosched()
		}
	}
}

// Close stops the resident goroutines and waits for them to exit; a closed
// pool remains usable, with Run executing serially on the calling
// goroutine. Close must not race a Run; closing twice is harmless.
func (p *Pool) Close() {
	if p.wake == nil {
		return
	}
	p.word.Store(closedBit)
	for p.unpark() {
		p.wake <- struct{}{}
	}
	<-p.gone
	p.wake = nil
}

// MatVec is a pooled sparse matrix-vector product: dst = M·x over the row
// chunks fed to Pool.Run. The struct is meant to live in a reusable
// workspace — set the fields, pass &op to Run, no per-call allocation.
type MatVec struct {
	M      *CSR
	Dst, X []float64
}

// RunRange implements Runner over matrix rows.
//
//stressvet:noalloc
func (o *MatVec) RunRange(lo, hi int) {
	m := o.M
	for r := lo; r < hi; r++ {
		var s float64
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			s += m.Vals[p] * o.X[m.ColIdx[p]]
		}
		o.Dst[r] = s
	}
}
