package rom

import (
	"testing"

	"repro/internal/mesh"
)

func BenchmarkLocalStageCoarse(b *testing.B) {
	spec := PaperSpec(15, mesh.CoarseResolution())
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalStageDefault(b *testing.B) {
	spec := PaperSpec(15, mesh.DefaultResolution())
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWorkers quantifies the task-level parallelism of the
// local stage (§4.2: "can be easily parallelized on the task level").
func BenchmarkAblationWorkers(b *testing.B) {
	spec := PaperSpec(15, mesh.CoarseResolution())
	for _, w := range []int{1, 4, 16} {
		b.Run(workerName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(spec, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func workerName(w int) string {
	switch w {
	case 1:
		return "serial"
	case 4:
		return "workers-4"
	default:
		return "workers-16"
	}
}

func BenchmarkReconstruct(b *testing.B) {
	r, err := Build(PaperSpec(15, mesh.CoarseResolution()), 0)
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, r.N)
	for i := range q {
		q[i] = float64(i%5) * 1e-3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Reconstruct(q, -250)
	}
}

func BenchmarkSampleVM(b *testing.B) {
	r, err := Build(PaperSpec(15, mesh.CoarseResolution()), 0)
	if err != nil {
		b.Fatal(err)
	}
	u := r.Reconstruct(make([]float64, r.N), -250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.SampleVM(u, -250, 25, 100)
	}
}

// BenchmarkReconstructPlane reconstructs the cut-plane layer of PlaneBatch
// blocks in one pass over their basis rows; BenchmarkReconstruct's q pattern (a
// fifth of the DoFs zero) repeated per block.
func BenchmarkReconstructPlane(b *testing.B) {
	r, err := Build(PaperSpec(15, mesh.CoarseResolution()), 0)
	if err != nil {
		b.Fatal(err)
	}
	var u, q [PlaneBatch][]float64
	var dt [PlaneBatch]float64
	for k := range q {
		u[k] = make([]float64, len(r.BasisT))
		q[k] = make([]float64, r.N)
		for i := range q[k] {
			q[k][i] = float64(i%5) * float64(k+1) * 1e-3
		}
		dt[k] = -250
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReconstructPlane(u[:], q[:], dt[:])
	}
}
