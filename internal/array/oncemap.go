package array

import (
	"fmt"
	"sync"
)

// OnceMap caches values built at most once per key: concurrent first
// requests for a key share one build, and every later request shares its
// result. A build that fails or panics leaves no entry, so the next request
// builds again; the requests that waited on it get its error (an error
// naming the panic, which itself propagates to the builder). Max > 0 caps
// the entries and MaxBytes > 0 the sum of Size over the built ones: after
// each build the sizes are summed afresh (a cached value may have grown
// since it was built) and arbitrary entries other than the one just built
// are dropped until both bounds hold. A dropped entry's waiters still
// finish on it, and a later request rebuilds it. The zero OnceMap is an
// empty, unbounded map; Size must be set when MaxBytes is.
type OnceMap[K comparable, V any] struct {
	Max      int
	MaxBytes int64
	Size     func(V) int64

	mu sync.Mutex
	m  map[K]*onceEntry[V] // guarded by mu
}

type onceEntry[V any] struct {
	done chan struct{} // closed when the build has finished
	v    V
	err  error
	// ready is set under OnceMap.mu once the build has succeeded, so
	// readers that see it can read v without racing the builder.
	ready bool
}

// Get returns key's value, running build first if no earlier request has
// (or the one that did failed); built reports that this call ran it.
func (c *OnceMap[K, V]) Get(key K, build func() (V, error)) (v V, built bool, err error) {
	c.mu.Lock()
	e := c.m[key]
	if e != nil {
		c.mu.Unlock()
		<-e.done
		return e.v, false, e.err
	}
	if c.m == nil {
		c.m = make(map[K]*onceEntry[V])
	}
	e = &onceEntry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			e.err = fmt.Errorf("array: build of cache key %v panicked", key)
		}
		c.finish(key, e)
	}()
	e.v, e.err = build()
	returned = true
	return e.v, true, e.err
}

// finish publishes e's build: it drops a failed entry, or marks a built one
// ready, releases e's waiters, and enforces the bounds.
func (c *OnceMap[K, V]) finish(key K, e *onceEntry[V]) {
	c.mu.Lock()
	if e.err != nil {
		if c.m[key] == e {
			delete(c.m, key)
		}
	} else {
		e.ready = true
	}
	c.mu.Unlock()
	close(e.done)
	if e.err == nil && (c.Max > 0 || c.MaxBytes > 0) {
		c.trim(key)
	}
}

// trim drops arbitrary entries other than keep until both bounds hold. The
// sizes are taken outside the lock, as Size may lock what it measures; an
// entry built meanwhile counts from its own trim on.
func (c *OnceMap[K, V]) trim(keep K) {
	var size map[*onceEntry[V]]int64
	if c.MaxBytes > 0 {
		size = make(map[*onceEntry[V]]int64)
		for _, e := range c.built() {
			size[e] = c.Size(e.v)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for _, e := range c.m {
		bytes += size[e]
	}
	for k, e := range c.m {
		if (c.Max <= 0 || len(c.m) <= c.Max) && (c.MaxBytes <= 0 || bytes <= c.MaxBytes) {
			break
		}
		if k != keep {
			delete(c.m, k)
			bytes -= size[e]
		}
	}
}

// built returns the entries whose build has succeeded, in no set order.
func (c *OnceMap[K, V]) built() []*onceEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*onceEntry[V]
	for _, e := range c.m {
		if e.ready {
			out = append(out, e) //stressvet:allow determinism -- callers only sum over the entries, which no order changes
		}
	}
	return out
}

// Each calls f on every built value, in no set order, outside the lock.
func (c *OnceMap[K, V]) Each(f func(V)) {
	for _, e := range c.built() {
		f(e.v)
	}
}
