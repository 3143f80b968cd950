package array

import (
	"errors"
	"testing"
	"time"
)

// TestOnceMapSurvivesPanic: a panicking build re-panics in its own caller,
// hands the request waiting on it an error instead of a zero value, and
// leaves no entry, so the next request builds the key again.
func TestOnceMapSurvivesPanic(t *testing.T) {
	var c OnceMap[string, *int]
	entered := make(chan struct{})
	release := make(chan struct{})
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the building caller")
			}
		}()
		c.Get("k", func() (*int, error) {
			close(entered)
			<-release
			panic("build exploded")
		})
	}()
	<-entered
	type outcome struct {
		v     *int
		built bool
		err   error
	}
	waiter := make(chan outcome, 1)
	go func() {
		one := 1
		v, built, err := c.Get("k", func() (*int, error) { return &one, nil })
		waiter <- outcome{v, built, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the build
	close(release)
	<-builderDone
	// A waiter that raced past the cleanup ran its own build; one that
	// waited must see the failure, never a nil value without an error.
	if w := <-waiter; !w.built && (w.err == nil || w.v != nil) {
		t.Errorf("waiter on the panicked build got (%v, %v), want (nil, an error)", w.v, w.err)
	}

	var d OnceMap[string, *int]
	func() {
		defer func() { recover() }()
		d.Get("k", func() (*int, error) { panic("build exploded") })
	}()
	answer := 42
	v, built, err := d.Get("k", func() (*int, error) { return &answer, nil })
	if err != nil || v == nil || *v != 42 || !built {
		t.Fatalf("Get after a panicked build = (%v, %v, %v), want a fresh build of 42", v, built, err)
	}
	if v, built, err = d.Get("k", nil); err != nil || v != &answer || built {
		t.Errorf("second Get = (%v, %v, %v), want the cached value", v, built, err)
	}
}

// TestOnceMapDropsFailedBuild: an error reaches its caller and is not
// cached; the next request builds again.
func TestOnceMapDropsFailedBuild(t *testing.T) {
	var c OnceMap[int, int]
	boom := errors.New("boom")
	if _, built, err := c.Get(1, func() (int, error) { return 0, boom }); err != boom || !built {
		t.Fatalf("failed build = (%v, %v), want (true, boom)", built, err)
	}
	if v, built, err := c.Get(1, func() (int, error) { return 7, nil }); err != nil || v != 7 || !built {
		t.Errorf("retry = (%d, %v, %v), want a fresh build of 7", v, built, err)
	}
}

// TestOnceMapBounds: a build past Max or MaxBytes drops other entries until
// both hold, never the one just built, and the sizes are summed afresh, so
// a value that grew after it was built counts at its new size.
func TestOnceMapBounds(t *testing.T) {
	c := OnceMap[int, *int64]{Max: 3, MaxBytes: 10, Size: func(v *int64) int64 { return *v }}
	size := func(n int64) func() (*int64, error) { return func() (*int64, error) { return &n, nil } }
	for k := 0; k < 5; k++ {
		if _, _, err := c.Get(k, size(1)); err != nil {
			t.Fatal(err)
		}
		if n := len(c.m); n > 3 {
			t.Fatalf("%d entries after building key %d, Max is 3", n, k)
		}
		if _, ok := c.m[k]; !ok {
			t.Fatalf("key %d dropped right after its build", k)
		}
	}
	grown, _, _ := c.Get(4, nil)
	*grown = 10 // with key 5's 1 byte, key 4 no longer fits
	if _, _, err := c.Get(5, size(1)); err != nil {
		t.Fatal(err)
	}
	var total int64
	c.Each(func(v *int64) { total += *v })
	if _, ok := c.m[4]; ok || total > 10 || len(c.m) > 3 {
		t.Errorf("after growth: key 4 kept %v, %d bytes in %d entries, want dropped and within 10 bytes, 3 entries", ok, total, len(c.m))
	}
	if _, _, err := c.Get(6, size(11)); err != nil {
		t.Fatal(err)
	}
	if len(c.m) != 1 {
		t.Errorf("%d entries next to one over MaxBytes, want it alone", len(c.m))
	}
}
