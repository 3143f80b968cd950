// Package morestress is a Go implementation of MORE-Stress, the model-order-
// reduction algorithm for efficient thermal stress simulation of TSV arrays
// in 2.5D/3D ICs (Zhu et al., DATE 2025, arXiv:2411.12690).
//
// Thermomechanical stress in 2.5D/3D integrated circuits arises from the
// mismatch of thermal expansion coefficients between copper TSVs, their
// dielectric liners, and the silicon substrate under the thermal load between
// processing and room temperature. Full finite-element analysis of a large
// TSV array is prohibitively expensive because the fine via geometry forces a
// fine mesh over a large domain. MORE-Stress exploits the periodicity of the
// array:
//
//   - A one-shot local stage (BuildModel) meshes a single p×p×h unit block,
//     places equally spaced Lagrange interpolation nodes on its surface, and
//     solves one Dirichlet problem per surface-node displacement component
//     (plus one thermal problem) with a single sparse Cholesky factorization.
//     The solutions are the local basis functions; projecting the fine
//     operator onto them yields a small dense element stiffness and load.
//
//   - A global stage (Model.SolveArray) treats every unit block as an
//     abstract finite element whose DoFs are the shared surface-node
//     displacements, assembles a sparse global system for an arbitrary
//     Bx×By array, applies boundary conditions by lifting, solves with
//     GMRES, and reconstructs per-block displacement and stress fields from
//     the basis.
//
//   - Sub-modeling (Model.SolveEmbedded) embeds an array anywhere in a
//     package: a coarse package solve provides displacement boundary
//     conditions for the array sub-model, with rings of pure-silicon "dummy"
//     blocks keeping the boundary away from the region of interest.
//
// Because a built ROM is reusable across arbitrary array sizes, thermal
// loads, and placements (§4.1), the package also provides a serving layer:
//
//   - An Engine (NewEngine / Engine.BatchSolve) schedules scenario Jobs on a
//     bounded worker pool over a content-addressed ROM cache
//     (internal/romcache): jobs with the same unit-cell configuration share
//     one ROM, concurrent requests for a missing ROM run the local stage
//     exactly once (singleflight), recently used models stay in an in-memory
//     LRU admitted against a byte budget (each model's MemoryBytes, so one
//     large lattice cannot evict a working set of small ones), and built
//     models optionally spill to disk in the Save/LoadModel gob format.
//     Repeated SolveDirect jobs on the same lattice additionally share a
//     sparse Cholesky factorization, so ΔT sweeps factor once.
//
//   - The global stage itself scales across scenarios: the engine assembles
//     each lattice's reduced global system once (array.Assembly, shared by
//     every solver kind) and each preconditioner at most once per lattice,
//     kind, and factor ordering (cached on the assembly — the IC0 factor
//     is no longer rebuilt per solve), the iterative solvers default to
//     auto-selected preconditioning (block-Jacobi-3 for small lattices,
//     IC0 at and above solver.AutoIC0Threshold DoFs;
//     SolverOptions.Precond overrides) with level-scheduled IC0 triangular
//     solves, an auto-selected symmetric factor ordering
//     (SolverOptions.Ordering: multicolor when the system reaches
//     solver.AutoMulticolorMinDoFs and the solve runs more than one
//     worker, natural otherwise) and
//     an allocation-free PCG hot loop, and uniform-ΔT sweeps are chained
//     in ΔT order so each solve warm-starts from its neighbor's solution,
//     falling back to a cold solve on divergence. EngineStats and
//     Solution/SolverStats surface assemblies and preconditioners reused,
//     solves per ordering, warm-start hit rate, and iteration counts. See
//     docs/SOLVER_TUNING.md for guidance and measurements.
//
//   - An asynchronous job queue (internal/jobqueue) turns the engine into a
//     submit-and-poll service: a job of many scenarios gets an ID
//     immediately and moves through pending → running → done or failed
//     (cancellable from either non-terminal state), with per-scenario
//     progress events, bounded-FIFO backpressure, cooperative cancellation,
//     and TTL garbage collection of finished results; see the jobqueue
//     package documentation for the lifecycle diagram.
//
//   - cmd/serve exposes both over HTTP — synchronous POST /solve and
//     POST /batch, asynchronous POST /jobs + GET /jobs/{id} (poll) +
//     GET /jobs/{id}/events (SSE) + DELETE /jobs/{id} (cancel), and
//     GET /stats / GET /healthz — for many concurrent clients;
//     examples/batch is the library-level walkthrough of both entry
//     points.
//
// The package also provides the two baselines evaluated in the paper: a
// conventional full-resolution FEM reference (ReferenceArray — the ground
// truth played by ANSYS in the paper) and the linear superposition method
// (BuildSuperposition), plus the error metrics, benchmark harness, and
// example scenarios that regenerate every table and figure of the paper's
// evaluation.
//
// The docs/ directory maps the system: docs/ARCHITECTURE.md is the layer
// map (mesh → fem → rom → array → engine → jobqueue → serve) and cache
// inventory; docs/SOLVER_TUNING.md covers global-stage solver selection,
// preconditioner trade-offs, and warm-start behavior with measurements;
// docs/STATIC_ANALYSIS.md documents the cmd/stressvet analyzer suite
// (internal/lint) that enforces the hot-path no-alloc, kernel-determinism,
// and lock-discipline invariants at build time, and the //stressvet:
// annotation grammar used throughout the source.
//
// All lengths are in µm, moduli in MPa, temperatures in °C; stresses come
// out in MPa.
package morestress
