package romcache

import (
	"fmt"
	"sync"
)

// call is an in-flight or completed group.Do invocation.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// group deduplicates concurrent function calls by key: while one goroutine
// runs fn for a key, every other Do with the same key blocks and receives the
// same result instead of running fn again (the classic singleflight pattern,
// here generic and dependency-free).
type group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do runs fn once per key at a time. The boolean reports whether the result
// was shared from another goroutine's in-flight call (true) or produced by
// this call's own fn invocation (false).
func (g *group[V]) Do(key string, fn func() (V, error)) (V, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := new(call[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// Release waiters and clear the slot even if fn panics: the panic
	// propagates to this caller, while waiters get an error instead of
	// blocking forever on a call that will never complete (under an HTTP
	// server, net/http recovers handler panics, so a wedged slot would
	// otherwise deadlock every later request for the key).
	normal := false
	defer func() {
		if !normal {
			c.err = fmt.Errorf("romcache: in-flight call for key %q panicked", key)
		}
		c.wg.Done()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}()
	c.val, c.err = fn()
	normal = true
	return c.val, c.err, false
}
