package sparse

import (
	"math/rand"
	"runtime"
	"testing"
)

// randLowerCSC builds a random n×n lower-triangular CSC matrix with unit-ish
// positive diagonal (diagonal first in each column, rows ascending), the
// storage contract of the incomplete-Cholesky factor.
func randLowerCSC(rng *rand.Rand, n, extraPerCol int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		rows := map[int]bool{}
		for k := 0; k < extraPerCol; k++ {
			if r := j + 1 + rng.Intn(n-j); r < n {
				rows[r] = true
			}
		}
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 1+rng.Float64())
		for r := j + 1; r < n; r++ {
			if rows[r] {
				l.RowIdx = append(l.RowIdx, int32(r))
				l.Vals = append(l.Vals, rng.NormFloat64())
			}
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

// diagCSC builds a pure diagonal matrix (single dependency level).
func diagCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, float64(j%7)+1)
		l.ColPtr[j+1] = int32(j + 1)
	}
	return l
}

// denseLastRowCSC builds an arrow shape: diagonal plus one dense final row.
func denseLastRowCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 2)
		if j < n-1 {
			l.RowIdx = append(l.RowIdx, int32(n-1))
			l.Vals = append(l.Vals, 0.5)
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

// chainCSC builds a bidiagonal chain: every row depends on the previous one,
// so there is no parallelism at all (n levels of width 1).
func chainCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 3)
		if j+1 < n {
			l.RowIdx = append(l.RowIdx, int32(j+1))
			l.Vals = append(l.Vals, -1)
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

func TestPartitionByWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		pref := make([]int32, n+1)
		for i := 0; i < n; i++ {
			w := int32(rng.Intn(50))
			if rng.Intn(10) == 0 {
				w = 3000 // heavy row
			}
			pref[i+1] = pref[i] + w
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		parts := 1 + rng.Intn(12)
		b := PartitionByWork(pref, lo, hi, parts)
		if int(b[0]) != lo || int(b[len(b)-1]) != hi {
			t.Fatalf("bounds %v do not span [%d,%d)", b, lo, hi)
		}
		if len(b)-1 > parts {
			t.Fatalf("got %d chunks, want ≤ %d", len(b)-1, parts)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("bounds %v not strictly increasing", b)
			}
		}
	}
}

func TestPartitionByWorkBalancesHeavyRows(t *testing.T) {
	// 63 light rows + 1 heavy row carrying half the work: a row-count split
	// would put the heavy row with 15 light ones; a work split must isolate
	// the tail so no chunk greatly exceeds the ideal share.
	n := 64
	pref := make([]int32, n+1)
	for i := 0; i < n; i++ {
		w := int32(10)
		if i == n-1 {
			w = 630
		}
		pref[i+1] = pref[i] + w
	}
	b := PartitionByWork(pref, 0, n, 4)
	// The heavy final row must sit alone in the last chunk.
	if int(b[len(b)-2]) != n-1 {
		t.Fatalf("heavy row not isolated: bounds %v", b)
	}
}

func lowerTris(t *testing.T) map[string]*LowerTri {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	cases := map[string]*CSC{
		"random-200":    randLowerCSC(rng, 200, 6),
		"random-3000":   randLowerCSC(rng, 3000, 12),
		"diagonal":      diagCSC(500),
		"dense-row":     denseLastRowCSC(400),
		"serial-chain":  chainCSC(300),
		"single":        diagCSC(1),
		"random-sparse": randLowerCSC(rng, 800, 2),
	}
	out := make(map[string]*LowerTri, len(cases))
	for name, csc := range cases {
		tri, err := NewLowerTriFromCSC(csc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tri
	}
	return out
}

// TestLowerTriSolvesInverse checks the serial reference solves against the
// definition: L·(SolveLower(b)) must reproduce b, and likewise for Lᵀ.
func TestLowerTriSolvesInverse(t *testing.T) {
	for name, tri := range lowerTris(t) {
		// A fresh per-case rng: map iteration order is random, so drawing b
		// from one shared stream made each case's data — and its rounding —
		// depend on the order, which intermittently pushed the largest system
		// just past tolerance.
		rng := rand.New(rand.NewSource(5))
		n := tri.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		tri.SolveLower(y, b)
		// Multiply back: (L·y)[r] = Σ_c L[r,c]·y[c].
		for r := 0; r < n; r++ {
			var s float64
			for p := tri.RowPtr[r]; p < tri.RowPtr[r+1]; p++ {
				s += tri.Vals[p] * y[tri.ColIdx[p]]
			}
			if d := s - b[r]; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s: (L·y)[%d] = %g, want %g", name, r, s, b[r])
				break
			}
		}
		z := make([]float64, n)
		tri.SolveUpper(z, b)
		for r := 0; r < n; r++ {
			var s float64
			for p := tri.UpPtr[r]; p < tri.UpPtr[r+1]; p++ {
				s += tri.UpVals[p] * z[tri.UpIdx[p]]
			}
			if d := s - b[r]; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s: (Lᵀ·z)[%d] = %g, want %g", name, r, s, b[r])
				break
			}
		}
	}
}

// TestLowerTriParBitwiseMatchesSerial is the level-scheduling correctness
// contract: for every matrix shape and pool size, the parallel solves must
// be bitwise identical to the serial reference — the row kernel is shared,
// only the schedule differs.
func TestLowerTriParBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	for name, tri := range lowerTris(t) {
		n := tri.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		wantL := make([]float64, n)
		tri.SolveLower(wantL, b)
		wantU := make([]float64, n)
		tri.SolveUpper(wantU, b)
		check := func(mode string, workers int, got []float64, want []float64) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s workers=%d: dst[%d] = %x, want %x (not bitwise equal)",
						name, mode, workers, i, got[i], want[i])
				}
			}
		}
		for _, w := range workerCounts {
			got := make([]float64, n)
			pool := NewPool(w)
			var sc TriScratch
			tri.SolveLowerPar(got, b, pool, &sc)
			check("lower", w, got, wantL)
			tri.SolveUpperPar(got, b, pool, &sc)
			check("upper", w, got, wantU)
			pool.Close()
		}
		// In-place: dst aliasing b must give the same bits.
		inPlace := make([]float64, n)
		copy(inPlace, b)
		pool := NewPool(4)
		var sc TriScratch
		tri.SolveLowerPar(inPlace, inPlace, pool, &sc)
		pool.Close()
		check("lower/in-place", 4, inPlace, wantL)
	}
}

// TestLevelScheduleRespectsDependencies checks the schedule invariant: every
// off-diagonal entry of a row must reference a row placed in a strictly
// earlier level.
func TestLevelScheduleRespectsDependencies(t *testing.T) {
	for name, tri := range lowerTris(t) {
		for dir, s := range map[string]*LevelSchedule{"fwd": tri.Fwd, "bwd": tri.Bwd} {
			if len(s.Order) != tri.N {
				t.Fatalf("%s %s: order holds %d rows, want %d", name, dir, len(s.Order), tri.N)
			}
			levelOf := make([]int, tri.N)
			seen := make([]bool, tri.N)
			for l := 0; l < s.NumLevels(); l++ {
				for i := s.LevelPtr[l]; i < s.LevelPtr[l+1]; i++ {
					r := s.Order[i]
					if seen[r] {
						t.Fatalf("%s %s: row %d scheduled twice", name, dir, r)
					}
					seen[r] = true
					levelOf[r] = l
				}
			}
			for r := 0; r < tri.N; r++ {
				if dir == "fwd" {
					for p := tri.RowPtr[r]; p < tri.RowPtr[r+1]-1; p++ {
						if dep := tri.ColIdx[p]; levelOf[dep] >= levelOf[r] {
							t.Fatalf("%s fwd: row %d (level %d) depends on row %d (level %d)",
								name, r, levelOf[r], dep, levelOf[dep])
						}
					}
				} else {
					for p := tri.UpPtr[r] + 1; p < tri.UpPtr[r+1]; p++ {
						if dep := tri.UpIdx[p]; levelOf[dep] >= levelOf[r] {
							t.Fatalf("%s bwd: row %d (level %d) depends on row %d (level %d)",
								name, r, levelOf[r], dep, levelOf[dep])
						}
					}
				}
			}
		}
	}
}

// TestLevelScheduleShapes pins the schedule structure of the degenerate
// shapes: a diagonal matrix is one wide level, a serial chain is n levels of
// width 1 (and must report itself non-parallelizable so solves stay serial).
func TestLevelScheduleShapes(t *testing.T) {
	tris := lowerTris(t)
	if d := tris["diagonal"]; d.Fwd.NumLevels() != 1 || d.Bwd.NumLevels() != 1 {
		t.Errorf("diagonal: %d/%d levels, want 1/1", d.Fwd.NumLevels(), d.Bwd.NumLevels())
	}
	if c := tris["serial-chain"]; c.Fwd.NumLevels() != c.N {
		t.Errorf("chain: %d levels, want %d", c.Fwd.NumLevels(), c.N)
	} else if c.Fwd.parallel {
		t.Error("chain schedule claims to be parallelizable")
	}
	// Arrow: every row but the last is independent (level 0), the dense last
	// row depends on all of them (level 1).
	if a := tris["dense-row"]; a.Fwd.NumLevels() != 2 {
		t.Errorf("dense-row: %d forward levels, want 2", a.Fwd.NumLevels())
	}
}

func TestNewLowerTriRejectsBadInput(t *testing.T) {
	// Missing diagonal.
	l := &CSC{NRows: 2, NCols: 2, ColPtr: []int32{0, 1, 2}, RowIdx: []int32{1, 1}, Vals: []float64{1, 1}}
	if _, err := NewLowerTriFromCSC(l); err == nil {
		t.Error("missing diagonal accepted")
	}
	// Non-square.
	l = &CSC{NRows: 3, NCols: 2, ColPtr: []int32{0, 1, 2}, RowIdx: []int32{0, 1}, Vals: []float64{1, 1}}
	if _, err := NewLowerTriFromCSC(l); err == nil {
		t.Error("non-square accepted")
	}
}
