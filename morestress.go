package morestress

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/array"
	"repro/internal/field"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
)

// Re-exported building blocks of the public API.
type (
	// Geometry is the TSV unit-cell geometry (µm).
	Geometry = mesh.TSVGeometry
	// Resolution controls the unit-block fine mesh.
	Resolution = mesh.BlockResolution
	// Materials groups the via/liner/bulk materials.
	Materials = material.TSVSet
	// Material is an isotropic thermoelastic material.
	Material = material.Material
	// Field is a 2-D scalar sample grid (e.g. mid-plane von Mises stress).
	Field = field.Grid2D
	// SolverOptions tunes the iterative solvers (including the
	// preconditioner via Precond).
	SolverOptions = solver.Options
	// SolverStats reports an iterative solve, including the resolved
	// preconditioner kind and whether the solve was warm-started.
	SolverStats = solver.Stats
	// Precond selects the preconditioner of the iterative global solvers.
	Precond = solver.PrecondKind
	// Ordering selects the symmetric ordering the factorizing
	// preconditioners (IC0) are built under, via SolverOptions.Ordering.
	Ordering = solver.OrderingKind
	// Precision selects the storage precision of the factorizing
	// preconditioners (IC0), via SolverOptions.Precision.
	Precision = solver.Precision
	// Vec3 is a 3-D point (µm).
	Vec3 = mesh.Vec3
	// Structure selects the fine structure inside the unit block.
	Structure = mesh.BlockKind
)

// Available fine structures (§6 of the paper: the method is
// structure-agnostic).
const (
	// StructureTSV is the paper's copper via + dielectric liner.
	StructureTSV = mesh.KindTSV
	// StructurePillar is a linerless cylinder (copper pillar / micro bump).
	StructurePillar = mesh.KindPillar
	// StructureAnnular is a hollow via-material ring (annular TSV).
	StructureAnnular = mesh.KindAnnular
)

// Preconditioner choices for SolverOptions.Precond.
const (
	// PrecondAuto (the default) picks by system size alone: block-Jacobi-3
	// for small lattices, IC0 at and above solver.AutoIC0Threshold DoFs —
	// the same rule for an engine solve and a bare one.
	PrecondAuto = solver.PrecondAuto
	// PrecondBlockJacobi3 inverts the per-node 3×3 diagonal blocks.
	PrecondBlockJacobi3 = solver.PrecondBlockJacobi3
	// PrecondIC0 is zero-fill incomplete Cholesky.
	PrecondIC0 = solver.PrecondIC0
	// PrecondNone applies the identity.
	PrecondNone = solver.PrecondNone
)

// ParsePrecond maps the flag/JSON spellings ("auto", "block-jacobi3"/"bj3",
// "ic0", "none") to a Precond. The deleted scalar "jacobi" is an error that
// lists these.
func ParsePrecond(s string) (Precond, error) { return solver.ParsePrecond(s) }

// Ordering choices for SolverOptions.Ordering.
const (
	// OrderingAuto (the default) switches IC0 to multicolor when the system
	// reaches solver.AutoMulticolorMinDoFs and the solve runs more than one
	// worker, and keeps the natural ordering otherwise.
	OrderingAuto = solver.OrderingAuto
	// OrderingNatural factors in the matrix's own row order.
	OrderingNatural = solver.OrderingNatural
	// OrderingMulticolor factors under the greedy multicolor ordering: one
	// wide dependency level per color, parallel preconditioner application.
	OrderingMulticolor = solver.OrderingMulticolor
)

// ParseOrdering maps the flag/JSON spellings ("auto", "natural",
// "multicolor") to an Ordering; any other spelling — including the deleted
// "rcm" — is an error that lists the valid ones.
func ParseOrdering(s string) (Ordering, error) { return solver.ParseOrdering(s) }

// Factor-precision choices for SolverOptions.Precision.
const (
	// PrecisionAuto (the default) stores the IC0 factor in float32.
	PrecisionAuto = solver.PrecisionAuto
	// PrecisionFloat64 forces double-precision factor storage.
	PrecisionFloat64 = solver.PrecisionFloat64
	// PrecisionFloat32 requests single-precision factor storage — roughly
	// half the factor bytes; a solve that stalls under it (GMRES or PCG) is
	// retried once against a float64 factor.
	PrecisionFloat32 = solver.PrecisionFloat32
)

// ParsePrecision maps the flag/JSON spellings ("auto", "float64"/"f64"/
// "double", "float32"/"f32"/"single") to a Precision.
func ParsePrecision(s string) (Precision, error) { return solver.ParsePrecision(s) }

// PaperGeometry returns the geometry used throughout the paper's
// experiments: h = 50 µm, d = 5 µm, t = 0.5 µm at the given pitch.
func PaperGeometry(pitch float64) Geometry { return mesh.PaperGeometry(pitch) }

// DefaultMaterials returns the Cu via / SiO2 liner / Si bulk set.
func DefaultMaterials() Materials { return material.DefaultTSVSet() }

// Config specifies a MORE-Stress model (the input of the one-shot local
// stage).
type Config struct {
	// Geometry of the TSV unit cell.
	Geometry Geometry
	// Materials of via, liner, and bulk.
	Materials Materials
	// Resolution of the unit-block fine mesh.
	Resolution Resolution
	// Nodes is (nx, ny, nz), the Lagrange interpolation nodes per axis.
	// The paper's experiments use (4,4,4); on this package's voxel meshes
	// (5,5,5) reaches the paper's sub-1% error regime (see EXPERIMENTS.md).
	Nodes [3]int
	// Structure selects the fine structure kind (default StructureTSV; the
	// method is structure-agnostic per §6 of the paper).
	Structure Structure
	// Quadratic switches the fine discretization (local stage and
	// references) to 20-node serendipity elements — the commercial element
	// class; the global stage is unchanged.
	Quadratic bool
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the experiment configuration at the given pitch.
func DefaultConfig(pitch float64) Config {
	return Config{
		Geometry:   PaperGeometry(pitch),
		Materials:  DefaultMaterials(),
		Resolution: mesh.DefaultResolution(),
		Nodes:      [3]int{5, 5, 5},
	}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) romSpec(withVia bool) rom.Spec {
	kind := c.Structure
	if !withVia {
		kind = mesh.KindDummy
	}
	return rom.Spec{
		Geom:      c.Geometry,
		Mats:      c.Materials,
		Res:       c.Resolution,
		Nodes:     c.Nodes,
		WithVia:   withVia,
		Kind:      kind,
		Quadratic: c.Quadratic,
	}
}

// Model is a built MORE-Stress model: the reduced-order unit-block models
// produced by the one-shot local stage. A Model is reusable across arbitrary
// array sizes, thermal loads, and package locations (§4.1 of the paper).
type Model struct {
	Config Config
	// TSV is the reduced-order model of the TSV unit block.
	TSV *rom.ROM
	// Dummy is the pure-silicon block model for sub-modeling padding; built
	// on demand by EnsureDummy or BuildModelWithDummy.
	Dummy *rom.ROM
}

// BuildModel runs the one-shot local stage for the TSV unit block.
func BuildModel(cfg Config) (*Model, error) {
	r, err := rom.Build(cfg.romSpec(true), cfg.workers())
	if err != nil {
		return nil, fmt.Errorf("morestress: local stage failed: %w", err)
	}
	return &Model{Config: cfg, TSV: r}, nil
}

// BuildModelWithDummy runs the local stage for both the TSV block and the
// dummy (pure silicon) block used by sub-modeling.
func BuildModelWithDummy(cfg Config) (*Model, error) {
	m, err := BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.EnsureDummy(); err != nil {
		return nil, err
	}
	return m, nil
}

// EnsureDummy builds the dummy-block ROM if it is not present (an extra
// local stage, §4.4).
func (m *Model) EnsureDummy() error {
	if m.Dummy != nil {
		return nil
	}
	d, err := rom.Build(m.Config.romSpec(false), m.Config.workers())
	if err != nil {
		return fmt.Errorf("morestress: dummy local stage failed: %w", err)
	}
	m.Dummy = d
	return nil
}

// LocalStageTime reports the one-shot local stage cost (TSV block, plus the
// dummy block when present).
func (m *Model) LocalStageTime() time.Duration {
	t := m.TSV.Stats.BuildTime
	if m.Dummy != nil {
		t += m.Dummy.Stats.BuildTime
	}
	return t
}

// ElementDoFs returns n of Eq. 16, the reduced element DoF count.
func (m *Model) ElementDoFs() int { return m.TSV.N }

// Save serializes the model (both ROMs if present).
func (m *Model) Save(w io.Writer) error {
	if err := m.TSV.Save(w); err != nil {
		return err
	}
	if m.Dummy != nil {
		return m.Dummy.Save(w)
	}
	return nil
}

// LoadModel reads a model written by Save. The dummy ROM is restored when it
// was saved: a clean end of stream after the TSV ROM means no dummy was
// saved, while a truncated or corrupt dummy record is an error.
func LoadModel(r io.Reader) (*Model, error) {
	tsv, err := rom.Load(r)
	if err != nil {
		return nil, err
	}
	m := &Model{TSV: tsv}
	m.Config = Config{
		Geometry:   tsv.Spec.Geom,
		Materials:  tsv.Spec.Mats,
		Resolution: tsv.Spec.Res,
		Nodes:      tsv.Spec.Nodes,
		Structure:  tsv.Spec.Kind,
		Quadratic:  tsv.Spec.Quadratic,
	}
	switch dummy, err := rom.Load(r); {
	case err == nil:
		m.Dummy = dummy
	case errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
		// No dummy ROM in the stream.
	default:
		return nil, fmt.Errorf("morestress: load dummy ROM: %w", err)
	}
	return m, nil
}

// ArraySpec describes a standalone clamped TSV array (scenario 1,
// Fig. 5(a)): Rows×Cols TSV blocks with top and bottom surfaces clamped.
type ArraySpec struct {
	// Rows, Cols are the array dimensions in blocks.
	Rows, Cols int
	// DeltaT is the thermal load in °C (paper: −250).
	DeltaT float64
	// DeltaTMap optionally overrides DeltaT per block (nonuniform thermal
	// fields, e.g. hotspots); nil means uniform DeltaT. The map is indexed
	// (row, col).
	DeltaTMap func(row, col int) float64
	// GridSamples is the per-block sampling resolution of the mid-plane von
	// Mises field (paper: 100). 0 disables field sampling.
	GridSamples int
	// UseCG selects the CG solver instead of the paper's GMRES.
	UseCG bool
	// Options tunes the global iterative solver.
	Options SolverOptions
}

// ArrayResult is a solved array.
type ArrayResult struct {
	// VM is the mid-plane von Mises field ((Cols·gs)×(Rows·gs)), nil if
	// GridSamples was 0.
	VM *Field
	// Solution retains the raw global-stage solution for further
	// post-processing.
	Solution *array.Solution
	// GlobalTime is assembly + solve + field sampling (the paper's
	// global-stage runtime).
	GlobalTime time.Duration
	// Stats reports the global iterative solve.
	Stats SolverStats
	// GlobalDoFs is the size of the reduced global system.
	GlobalDoFs int
}

// Iterative reports whether the result came from an iterative global solve
// (GMRES/PCG) — whose Stats carry iteration count, residual, preconditioner,
// and warm-start provenance — rather than a direct factorization or the
// degenerate all-constrained case (where no solver runs and the Stats are
// blank apart from Converged).
func (r *ArrayResult) Iterative() bool {
	return r.Solution != nil && r.Solution.Prob.Solver != array.Direct && len(r.Solution.QFree) > 0
}

// SolveArray runs the global stage for a standalone clamped array.
func (m *Model) SolveArray(spec ArraySpec) (*ArrayResult, error) {
	kind := array.GMRES
	if spec.UseCG {
		kind = array.CG
	}
	prob := globalProblem(m.TSV, spec.Rows, spec.Cols, spec.DeltaT, spec.DeltaTMap, kind, spec.Options, m.Config.workers())
	return solveGlobal(prob, spec.GridSamples)
}

// globalProblem translates a standalone clamped-array scenario into the
// abstract global-stage problem — the single scenario-to-Problem mapping
// shared by Model.SolveArray and the batch Engine. dtMap is indexed
// (row, col) and is swapped here to the array package's (bx, by).
func globalProblem(r *rom.ROM, rows, cols int, deltaT float64, dtMap func(row, col int) float64, kind array.SolverKind, opt SolverOptions, workers int) *array.Problem {
	var dtFor func(bx, by int) float64
	if dtMap != nil {
		dtFor = func(bx, by int) float64 { return dtMap(by, bx) }
	}
	return &array.Problem{
		ROM: r, Bx: cols, By: rows,
		DeltaT:    deltaT,
		DeltaTFor: dtFor,
		BC:        engineBC,
		Solver:    kind,
		Opt:       opt,
		Workers:   workers,
	}
}

// solveGlobal runs the global stage of prob, samples the mid-plane field
// when requested, and packages the result with its timing.
func solveGlobal(prob *array.Problem, gridSamples int) (*ArrayResult, error) {
	start := time.Now()
	sol, err := array.Solve(prob)
	if err != nil {
		return nil, err
	}
	res := &ArrayResult{
		Solution:   sol,
		Stats:      sol.Stats,
		GlobalDoFs: sol.GlobalDoFs,
	}
	if gridSamples > 0 {
		res.VM = sol.VMField(gridSamples, prob.Workers)
	}
	res.GlobalTime = time.Since(start)
	return res, nil
}
