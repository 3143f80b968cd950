package sparse

import "sync"

// Runner is a parallel kernel over contiguous index chunks. It is an
// interface rather than a func so a caller can dispatch a preallocated op
// struct through a Pool without allocating a closure per call — the
// requirement of the allocation-free solver hot loops.
type Runner interface {
	// RunRange processes indices [lo, hi).
	RunRange(lo, hi int)
}

// poolTask is one chunk of a Run. It travels by value through the task
// channel, so dispatch never allocates.
type poolTask struct {
	lo, hi int32
	r      Runner
}

// Pool is a resident gang of worker goroutines for repeated parallel
// kernels. Spawning goroutines per operation allocates (closures, stacks)
// and that cost recurs every iteration of an iterative solver; a Pool pays
// it once. A Pool serves one Run at a time — it is meant to be owned by a
// single solve (via solver.Workspace), not shared. Close releases the
// goroutines and returns once they have exited.
type Pool struct {
	workers int
	tasks   chan poolTask
	// wg counts in-flight chunks of the current Run. A WaitGroup rather
	// than a completion channel: the gang must never block on reporting
	// completion, or a Run with more chunks than channel capacity would
	// deadlock against the caller still submitting.
	wg sync.WaitGroup
	// running counts the resident goroutines that have not exited; Close
	// waits on it so a closed pool leaves no goroutine behind.
	running sync.WaitGroup
}

// NewPool creates a pool with the given total parallelism: workers−1
// resident goroutines plus the calling goroutine, which participates in
// every Run. workers ≤ 1 creates a degenerate pool whose Run executes
// serially (no goroutines are started).
//
//stressvet:gang -- workers-1 resident pool goroutines, reused by every Run and joined on Close
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan poolTask, workers)
		p.running.Add(workers - 1)
		for i := 0; i < workers-1; i++ {
			// The channel travels as an argument so the goroutine never
			// reads the struct field, which Close overwrites.
			go p.worker(p.tasks)
		}
	}
	return p
}

// Workers returns the pool's total parallelism (gang + caller).
func (p *Pool) Workers() int { return p.workers }

//stressvet:noalloc
func (p *Pool) worker(tasks <-chan poolTask) {
	for t := range tasks {
		t.r.RunRange(int(t.lo), int(t.hi))
		p.wg.Done()
	}
	p.running.Done()
}

// Run executes r over each [bounds[i], bounds[i+1]) chunk, distributing
// chunks across the gang and returning when every chunk has completed. The
// calling goroutine is a full participant: when the task channel is full it
// runs the chunk itself instead of blocking, so a Run with many more chunks
// than workers still gets the gang's full parallelism plus the caller. It
// performs no allocation.
//
//stressvet:noalloc
func (p *Pool) Run(bounds []int32, r Runner) {
	n := len(bounds) - 1
	if n < 1 {
		return
	}
	if p.tasks == nil || n == 1 {
		for i := 0; i < n; i++ {
			r.RunRange(int(bounds[i]), int(bounds[i+1]))
		}
		return
	}
	for i := 0; i < n-1; i++ {
		p.wg.Add(1)
		t := poolTask{lo: bounds[i], hi: bounds[i+1], r: r}
		select {
		case p.tasks <- t:
		default:
			r.RunRange(int(t.lo), int(t.hi))
			p.wg.Done()
		}
	}
	r.RunRange(int(bounds[n-1]), int(bounds[n]))
	p.wg.Wait()
}

// Close stops the resident goroutines and waits for them to exit; a closed
// pool remains usable, with Run executing serially on the calling
// goroutine. Close must not race a Run; closing twice is harmless.
func (p *Pool) Close() {
	if p.tasks != nil {
		close(p.tasks)
		p.tasks = nil
		p.running.Wait()
	}
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
