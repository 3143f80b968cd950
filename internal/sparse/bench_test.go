package sparse

import (
	"math/rand"
	"runtime"
	"testing"
)

func benchCSR(n, nnzPerRow int) *CSR {
	rng := rand.New(rand.NewSource(1))
	t := NewTriplet(n, n, n*nnzPerRow)
	for r := 0; r < n; r++ {
		for k := 0; k < nnzPerRow; k++ {
			t.Add(r, rng.Intn(n), rng.NormFloat64())
		}
	}
	return t.ToCSR()
}

func BenchmarkSpMVSerial(b *testing.B) {
	m := benchCSR(100000, 27)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	dst := make([]float64, m.NRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkSpMVParallel(b *testing.B) {
	m := benchCSR(100000, 27)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	dst := make([]float64, m.NRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecPar(dst, x, 8)
	}
}

// nodeBlockCSR builds a 3-DoF node-blocked matrix over a 2D 9-point node
// stencil with dense 3×3 tiles — the reduced-global sparsity BCSR targets.
func nodeBlockCSR(nx, ny int) *CSR {
	rng := rand.New(rand.NewSource(5))
	nodes := nx * ny
	t := NewTriplet(nodes*BlockSize, nodes*BlockSize, nodes*9*BlockSize*BlockSize)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			node := y*nx + x
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= nx || yy < 0 || yy >= ny {
						continue
					}
					other := yy*nx + xx
					for i := 0; i < BlockSize; i++ {
						for j := 0; j < BlockSize; j++ {
							v := rng.NormFloat64()
							if node == other && i == j {
								v = 50 // dominant diagonal, same pattern either way
							}
							t.Add(node*BlockSize+i, other*BlockSize+j, v)
						}
					}
				}
			}
		}
	}
	return t.ToCSR()
}

// BenchmarkBlockedMulVec compares the scalar CSR mat-vec against the
// 3×3-tiled BCSR one on a node-blocked matrix (120×120 nodes, 43200 rows,
// ~1.16M nnz): one index per tile instead of per scalar is ~1/3 the index
// traffic, and the unrolled tile kernel keeps three running sums. The
// blocked-sym rows run the symmetrized matrix from its upper triangle,
// reading each off-diagonal tile once for two products. Run with -cpu 1,4:
// the serial rows isolate the kernel, the par rows add the fan-out over
// the matrix's tile-balanced stripes.
func BenchmarkBlockedMulVec(b *testing.B) {
	m := nodeBlockCSR(120, 120)
	bm, err := NewBCSR(m)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	dst := make([]float64, m.NRows)
	workers := runtime.GOMAXPROCS(0)
	b.Run("scalar/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVec(dst, x)
		}
	})
	b.Run("blocked/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bm.MulVec(dst, x)
		}
	})
	b.Run("scalar/par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVecPar(dst, x, workers)
		}
	})
	b.Run("blocked/par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bm.MulVecPar(dst, x, workers)
		}
	})
	// The same pattern made symmetric is stored as its upper triangle; the
	// serial row runs the stripes on a caller-owned spill slab, as a
	// solver workspace does.
	sm, err := NewBCSR(symmetrize(m))
	if err != nil || !sm.Sym {
		b.Fatalf("symmetrized matrix not stored Sym (err %v)", err)
	}
	b.Run("blocked-sym/serial", func(b *testing.B) {
		op := &BlockMatVec{M: sm, Dst: dst, X: x, Spill: make([]float64, sm.SpillLen())}
		for i := 0; i < b.N; i++ {
			op.RunRange(0, sm.NBRows())
			op.Fold()
		}
	})
	b.Run("blocked-sym/par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sm.MulVecPar(dst, x, workers)
		}
	})
}

func BenchmarkTripletToCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, e = 50000, 500000
	rows := make([]int, e)
	cols := make([]int, e)
	vals := make([]float64, e)
	for i := 0; i < e; i++ {
		rows[i], cols[i], vals[i] = rng.Intn(n), rng.Intn(n), rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewTriplet(n, n, e)
		for j := 0; j < e; j++ {
			t.Add(rows[j], cols[j], vals[j])
		}
		_ = t.ToCSR()
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchCSR(50000, 27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

// nopRunner is the trivial kernel: every cost BenchmarkPoolRun sees is
// dispatch.
type nopRunner struct{}

func (*nopRunner) RunRange(lo, hi int) {}

// BenchmarkPoolRun measures one warm round trip through a 2-worker Pool —
// publish, claim both chunks, await completion — with a kernel that does no
// work: the dispatch cost levelChunkWork and MinParRows are sized against.
// It needs two processors: on one, the member cannot run alongside the
// caller, which claims both chunks itself and never hands one off.
func BenchmarkPoolRun(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a handoff needs GOMAXPROCS ≥ 2")
	}
	p := NewPool(2)
	defer p.Close()
	bounds := []int32{0, 1, 2}
	r := &nopRunner{}
	p.Run(bounds, r) // wake the member
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(bounds, r)
	}
}
