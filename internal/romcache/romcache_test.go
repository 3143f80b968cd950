package romcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/rom"
)

// testSpec returns a cheap ROM spec for unit tests.
func testSpec(pitch float64) rom.Spec {
	s := rom.PaperSpec(pitch, mesh.CoarseResolution())
	s.Nodes = [3]int{3, 3, 3}
	return s
}

func TestKeyStableAndDiscriminating(t *testing.T) {
	a := testSpec(15)
	k1, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(testSpec(15))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equal specs hash differently: %s vs %s", k1, k2)
	}
	variants := []rom.Spec{testSpec(10), a, a, a}
	variants[1].Nodes = [3]int{4, 4, 4}
	variants[2].Quadratic = true
	variants[3].Kind = mesh.KindPillar
	seen := map[string]int{k1: -1}
	for i, v := range variants {
		k, err := Key(v)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
}

func TestGetBuildsOnceThenHits(t *testing.T) {
	var builds atomic.Int64
	c := New(Options{Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
		builds.Add(1)
		return rom.Build(spec, workers)
	}})
	spec := testSpec(15)
	r1, hit, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Get reported a cache hit")
	}
	r2, hit, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second Get missed")
	}
	if r1 != r2 {
		t.Error("second Get returned a different model")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("local stage ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestSingleflightDedup launches many concurrent Gets for the same spec and
// checks the local stage runs exactly once (run under -race).
func TestSingleflightDedup(t *testing.T) {
	var builds atomic.Int64
	c := New(Options{Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
		builds.Add(1)
		return rom.Build(spec, workers)
	}})
	spec := testSpec(15)
	const callers = 16
	roms := make([]*rom.ROM, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := c.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			roms[i] = r
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("local stage ran %d times under %d concurrent Gets, want 1", n, callers)
	}
	for i := 1; i < callers; i++ {
		if roms[i] != roms[0] {
			t.Errorf("caller %d got a distinct model", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %+v, want %d hits / 1 miss", s, callers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	pitches := []float64{10, 12, 15}
	for _, p := range pitches {
		if _, _, err := c.Get(testSpec(p)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Contains(testSpec(10)) {
		t.Error("oldest entry survived past MaxEntries")
	}
	if !c.Contains(testSpec(12)) || !c.Contains(testSpec(15)) {
		t.Error("recent entries evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction / 2 entries", s)
	}
}

// TestDiskSpillRoundTrip checks the gob round-trip through the spill dir: a
// fresh cache (cold memory) must restore the model from disk without
// re-running the local stage, and the restored ROM must solve identically.
func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(15)

	var builds atomic.Int64
	counting := func(spec rom.Spec, workers int) (*rom.ROM, error) {
		builds.Add(1)
		return rom.Build(spec, workers)
	}

	warm := New(Options{Dir: dir, Build: counting})
	orig, _, err := warm.Get(spec)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(Options{Dir: dir, Build: counting})
	restored, hit, err := cold.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("disk-spilled model was rebuilt")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("local stage ran %d times across both caches, want 1", n)
	}
	if s := cold.Stats(); s.DiskHits != 1 {
		t.Errorf("cold cache stats = %+v, want 1 disk hit", s)
	}
	if restored.N != orig.N {
		t.Fatalf("restored N = %d, want %d", restored.N, orig.N)
	}
	for i := 0; i < orig.N; i++ {
		if restored.Belem[i] != orig.Belem[i] {
			t.Fatalf("Belem[%d] differs after round-trip", i)
		}
	}
}

// TestDiskSpillCorrupt checks that a truncated spill file is treated as a
// miss (the model is rebuilt) and the bad file is removed.
func TestDiskSpillCorrupt(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(15)
	key, err := Key(spec)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(Options{Dir: dir})
	if _, _, err := warm.Get(spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".rom")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var builds atomic.Int64
	cold := New(Options{Dir: dir, Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
		builds.Add(1)
		return rom.Build(spec, workers)
	}})
	if _, hit, err := cold.Get(spec); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Error("corrupt spill reported as hit")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("local stage ran %d times, want 1 (rebuild after corrupt spill)", n)
	}
	// The rebuild re-spills a good file over the corrupt one.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(blob)) {
		t.Errorf("spill not rewritten after corruption (err=%v)", err)
	}
}

// TestGroupSurvivesPanic checks the liveness guarantee: a panicking fn must
// re-panic in its own caller, hand waiters an error instead of blocking them
// forever, and leave the key usable for the next call.
func TestGroupSurvivesPanic(t *testing.T) {
	var g group[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the panicking caller")
			}
		}()
		g.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("local stage exploded")
		})
	}()
	<-entered
	go func() {
		_, err, shared := g.Do("k", func() (int, error) { return 1, nil })
		if !shared {
			// The waiter raced past the cleanup and ran its own fn; the
			// sharing path wasn't exercised, but nothing deadlocked.
			waiterErr <- err
			return
		}
		if err == nil {
			err = fmt.Errorf("waiter sharing a panicked call got nil error")
		} else {
			err = nil
		}
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the in-flight call
	close(release)
	// A hang here is the regression: pre-fix, waiters on a panicked call
	// block forever.
	if err := <-waiterErr; err != nil {
		t.Error(err)
	}
	// The slot must be free again.
	v, err, _ := g.Do("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Errorf("post-panic Do = (%d, %v), want (42, nil)", v, err)
	}
}

func TestGroupPropagatesErrors(t *testing.T) {
	var g group[int]
	wantErr := fmt.Errorf("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	// The failed call must not be cached: a retry runs fn again.
	v, err, _ := g.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("retry = (%d, %v), want (7, nil)", v, err)
	}
}

// fakeROM fabricates a model whose only meaningful property is its recorded
// size — byte-budget admission never runs a solve.
func fakeROM(bytes int64) *rom.ROM {
	return &rom.ROM{Stats: rom.BuildStats{MemoryBytes: bytes}}
}

// TestByteBudgetEviction checks admission by bytes: models are evicted from
// the cold end when the summed MemoryBytes exceeds MaxBytes, regardless of
// entry count.
func TestByteBudgetEviction(t *testing.T) {
	sizes := map[float64]int64{10: 400, 12: 400, 15: 400}
	c := New(Options{
		MaxBytes: 1000,
		Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
			return fakeROM(sizes[spec.Geom.Pitch]), nil
		},
	})
	for _, p := range []float64{10, 12, 15} {
		if _, _, err := c.Get(testSpec(p)); err != nil {
			t.Fatal(err)
		}
	}
	// 3×400 = 1200 > 1000: the oldest model must be gone, 2 remain.
	if c.Contains(testSpec(10)) {
		t.Error("oldest entry survived past the byte budget")
	}
	if !c.Contains(testSpec(12)) || !c.Contains(testSpec(15)) {
		t.Error("recent entries evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 800 || s.MaxBytes != 1000 {
		t.Errorf("stats = %+v, want 1 eviction / 2 entries / 800 of 1000 bytes", s)
	}
}

// TestByteBudgetLargeEvictsWorkingSet is the scenario the byte budget
// exists for: one large lattice must not leave small hot models resident
// beyond budget — and, conversely, must itself be admitted even when it
// exceeds the entire budget, alone.
func TestByteBudgetLargeEvictsWorkingSet(t *testing.T) {
	sizes := map[float64]int64{10: 100, 12: 100, 15: 5000}
	c := New(Options{
		MaxBytes: 1000,
		Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
			return fakeROM(sizes[spec.Geom.Pitch]), nil
		},
	})
	for _, p := range []float64{10, 12} {
		if _, _, err := c.Get(testSpec(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get(testSpec(15)); err != nil {
		t.Fatal(err)
	}
	// The oversized model is admitted alone.
	if !c.Contains(testSpec(15)) {
		t.Error("oversized model rejected; admission must keep the newest entry")
	}
	if c.Contains(testSpec(10)) || c.Contains(testSpec(12)) {
		t.Error("small models resident alongside an over-budget one")
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 5000 {
		t.Errorf("stats = %+v, want the single 5000-byte entry", s)
	}
	// A later small model displaces the oversized one (LRU order).
	if _, _, err := c.Get(testSpec(10)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(testSpec(15)) {
		t.Error("over-budget model survived a later admission")
	}
	if !c.Contains(testSpec(10)) {
		t.Error("fresh small model missing")
	}
}

// TestByteBudgetWithEntryCap checks the two bounds compose: whichever is
// tighter governs.
func TestByteBudgetWithEntryCap(t *testing.T) {
	c := New(Options{
		MaxBytes:   1 << 40,
		MaxEntries: 2,
		Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
			return fakeROM(8), nil
		},
	})
	for _, p := range []float64{10, 12, 15} {
		if _, _, err := c.Get(testSpec(p)); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 2 || s.Bytes != 16 {
		t.Errorf("stats = %+v, want entry cap to govern (2 entries, 16 bytes)", s)
	}
}

// TestDefaultSizeFallback checks the default byte accounting: a model with
// a recorded MemoryBytes uses it, and one without (older spill files) gets
// a structural recount of its basis and element arrays.
func TestDefaultSizeFallback(t *testing.T) {
	if got := romBytes(fakeROM(12345)); got != 12345 {
		t.Errorf("recorded size: romBytes = %d, want 12345", got)
	}
	bare := &rom.ROM{
		Basis:  [][]float64{make([]float64, 3), make([]float64, 5)},
		BasisT: make([]float64, 7),
		Aelem:  &linalg.Dense{Rows: 2, Cols: 2, Data: make([]float64, 4)},
		Belem:  make([]float64, 2),
	}
	want := int64(3+5+7+4+2) * 8
	if got := romBytes(bare); got != want {
		t.Errorf("structural recount: romBytes = %d, want %d", got, want)
	}
	if got := romBytes(&rom.ROM{}); got != 0 {
		t.Errorf("empty model: romBytes = %d, want 0", got)
	}
}

// TestDiskSpillWrongContent plants a well-formed spill of a different spec
// under a key and checks content verification rejects it: the model is
// rebuilt and the lying file removed.
func TestDiskSpillWrongContent(t *testing.T) {
	dir := t.TempDir()
	right := testSpec(15)
	wrong := testSpec(10)
	rightKey, err := Key(right)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(Options{Dir: dir})
	if _, _, err := warm.Get(wrong); err != nil {
		t.Fatal(err)
	}
	wrongKey, err := Key(wrong)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, wrongKey+".rom"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, rightKey+".rom"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var builds atomic.Int64
	cold := New(Options{Dir: dir, Build: func(spec rom.Spec, workers int) (*rom.ROM, error) {
		builds.Add(1)
		return rom.Build(spec, workers)
	}})
	r, hit, err := cold.Get(right)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("mismatched spill content reported as hit")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("local stage ran %d times, want 1", n)
	}
	if got, _ := Key(r.Spec); got != rightKey {
		t.Errorf("Get returned the impostor model")
	}
}

// TestSpillFailureIsTolerated points the spill dir at a plain file so every
// write fails: the cache must keep serving from memory as if spill were
// disabled.
func TestSpillFailureIsTolerated(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: filepath.Join(blocker, "sub")})
	if _, _, err := c.Get(testSpec(15)); err != nil {
		t.Fatalf("Get with unwritable spill dir: %v", err)
	}
	if _, hit, err := c.Get(testSpec(15)); err != nil || !hit {
		t.Errorf("second Get = hit %v, err %v; want memory hit", hit, err)
	}
}

// TestInsertReplaceAccounting re-inserts a key and checks the byte ledger
// tracks the replacement, not the sum.
func TestInsertReplaceAccounting(t *testing.T) {
	c := New(Options{MaxBytes: 1000})
	key := "k"
	c.insert(key, fakeROM(400))
	if s := c.Stats(); s.Bytes != 400 || s.Entries != 1 {
		t.Fatalf("after insert: %+v", s)
	}
	c.insert(key, fakeROM(250))
	if s := c.Stats(); s.Bytes != 250 || s.Entries != 1 {
		t.Errorf("after replace: %+v, want 250 bytes / 1 entry", s)
	}
}
