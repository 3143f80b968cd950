package solver

import (
	"runtime"
	"sync/atomic"
)

// The auto-selection knobs — the PrecondAuto IC0 crossover and the
// package-wide worker default — are startup-tunable: internal/solver/tuning
// derives them from the measured host profiles in BENCH_global.json (the
// embedded snapshot, or a -tuning file on serve/router) and applies them
// before the first solve. DefaultAutoIC0Threshold and the GOMAXPROCS
// fallback remain in force whenever no profile matches the running host. The values are atomics so a tuning
// application racing an in-flight solve is merely a stale read, never a
// data race; they are meant to be set once at process startup.
var (
	autoIC0Threshold atomic.Int64
	defaultWorkers   atomic.Int64
)

func init() {
	autoIC0Threshold.Store(DefaultAutoIC0Threshold)
}

// AutoIC0Threshold is the system size (DoFs) at and above which PrecondAuto
// resolves to IC0 on the amortized (assembly-cached) path. It starts at
// DefaultAutoIC0Threshold and may be replaced at startup by a measured
// host-profile value (SetAutoIC0Threshold).
func AutoIC0Threshold() int { return int(autoIC0Threshold.Load()) }

// SetAutoIC0Threshold installs a measured IC0 crossover and returns the
// previous value; n <= 0 restores DefaultAutoIC0Threshold. Intended for
// process startup (internal/solver/tuning) and tests.
func SetAutoIC0Threshold(n int) int {
	if n <= 0 {
		n = DefaultAutoIC0Threshold
	}
	return int(autoIC0Threshold.Swap(int64(n)))
}

// DefaultWorkers is the package-wide worker-count default applied wherever
// an Options.Workers (or EngineOptions.Workers) travels zero: GOMAXPROCS
// unless a measured host profile installed a different ceiling
// (SetDefaultWorkers — e.g. a host whose benches show the level-scheduled
// fan-out losing to the serial kernels caps the gangs at one worker).
func DefaultWorkers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers installs a measured worker default and returns the
// previous value (0 if the GOMAXPROCS fallback was active); n <= 0 restores
// the GOMAXPROCS fallback. Intended for process startup
// (internal/solver/tuning) and tests.
func SetDefaultWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultWorkers.Swap(int64(n)))
}
