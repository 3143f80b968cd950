// Package router is the shard coordinator of the serving layer: it maps
// each request's lattice key — the same "ROM spec SHA-256 | dims | BC"
// string every lattice-affine engine cache (assembly, preconditioner,
// unit-load solution, factor) is keyed by — onto a shard with rendezvous
// (highest-random-weight) hashing, so requests for one lattice keep landing
// where that lattice's caches are already warm.
//
// Two deployments share the one Table:
//
//   - In-process sharding (Shards): cmd/serve -shards N runs N independent
//     Engine instances behind one HTTP front end, each owning a disjoint
//     slice of lattice keyspace. The content-addressed ROM cache stays
//     shared (it is shard-agnostic); the lattice-keyed caches stop
//     contending entirely.
//
//   - Proxy mode (Proxy): cmd/router forwards /solve, /batch, and the full
//     /jobs lifecycle (SSE included) to replica base URLs, probing each
//     replica's /readyz, retrying onto the next shard in rendezvous order
//     when one is down, and aggregating /stats across the fleet.
//
// Rendezvous hashing gives the two properties the serving economics need:
// deterministic placement (any router instance, or the same one after a
// restart, maps a key to the same shard) and minimal disruption (adding or
// removing one of k shards moves only ~1/k of the keyspace — every other
// key keeps its warm replica).
package router

// Table is an immutable rendezvous-hash table over a fixed list of shard
// names. Placement depends only on the key and the shard names — not on
// their order of appearance, the table instance, or any prior traffic — so
// every Table built from the same names agrees, across processes and
// restarts.
type Table struct {
	names []string
	seeds []uint64
}

// NewTable builds a table over the given shard names (replica URLs in proxy
// mode, synthetic "shard-i" names in-process). Names must be non-empty and
// distinct: duplicate names would silently halve their owner's keyspace.
// It panics on an empty list or duplicates — both are wiring bugs, not
// runtime conditions.
func NewTable(names []string) *Table {
	if len(names) == 0 {
		panic("router: NewTable needs at least one shard")
	}
	t := &Table{
		names: make([]string, len(names)),
		seeds: make([]uint64, len(names)),
	}
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if seen[n] {
			panic("router: duplicate shard name " + n)
		}
		seen[n] = true
		t.names[i] = n
		// Pre-mix the name hash once: Pick then pays one mix per shard,
		// not one string hash per shard.
		t.seeds[i] = mix64(hashString(n))
	}
	return t
}

// Len returns the shard count.
func (t *Table) Len() int { return len(t.names) }

// Name returns the i-th shard's name.
func (t *Table) Name(i int) string { return t.names[i] }

// FNV-1a constants; the key hash is FNV-1a over the key bytes, then mixed
// per shard with the splitmix64 finalizer. FNV alone is too weak for HRW
// (its low avalanche would correlate shard scores); the finalizer's full
// avalanche makes per-shard scores effectively independent, which is what
// the balance bound rests on.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//stressvet:noalloc
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
//
//stressvet:noalloc
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the HRW weight of the (pre-hashed) key on shard i.
//
//stressvet:noalloc
func (t *Table) score(kh uint64, i int) uint64 { return mix64(kh ^ t.seeds[i]) }

// Pick returns the index of the shard owning key: the highest-scoring shard
// under rendezvous hashing (ties, vanishingly rare with 64-bit scores,
// break toward the lower index so placement stays total and deterministic).
// It sits on the per-request serving path, so it is allocation-free.
//
//stressvet:noalloc
func (t *Table) Pick(key string) int {
	kh := hashString(key)
	best := 0
	bestScore := t.score(kh, 0)
	for i := 1; i < len(t.seeds); i++ {
		if s := t.score(kh, i); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Order fills dst with every shard index in descending score order for key
// and returns it: dst[0] is the owner (== Pick), dst[1] the first failover
// candidate, and so on. dst is grown as needed; pass a scratch slice to
// avoid allocation. The failover order is itself rendezvous-stable: when
// the owner is down, every router instance agrees on the runner-up, so a
// dead replica's keyspace lands coherently on single replacements instead
// of scattering per request.
func (t *Table) Order(key string, dst []int) []int {
	n := len(t.seeds)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	kh := hashString(key)
	// Insertion sort by descending score: n is a replica count (single
	// digits), so this beats allocating score/index pairs for sort.Slice.
	for i := 0; i < n; i++ {
		si := t.score(kh, i)
		j := i
		for j > 0 && t.score(kh, dst[j-1]) < si {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = i
	}
	return dst
}
