// Package romcache provides a content-addressed cache of unit-block
// reduced-order models. The one-shot local stage is the expensive part of
// MORE-Stress; its output, the ROM, is reusable across arbitrary array
// sizes, thermal loads, and placements (§4.1 of the paper). The cache keys
// ROMs by a canonical hash of rom.Spec, keeps recently used models in an
// in-memory LRU admitted against a byte budget (each model's MemoryBytes,
// so a handful of large lattices cannot silently evict a whole working set
// of small ones), optionally spills every built model to disk in the gob
// format of rom.Save/rom.Load, and deduplicates concurrent builds with
// singleflight so N simultaneous requests for the same unit cell run the
// local stage exactly once.
package romcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rom"
)

// Key returns the canonical content address of a spec: the hex SHA-256 of
// its gob encoding. Specs with equal field values always hash equally; any
// differing field changes the key.
func Key(spec rom.Spec) (string, error) {
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(&spec); err != nil {
		return "", fmt.Errorf("romcache: hash spec: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DefaultMaxBytes is the in-memory budget used when Options sets neither
// MaxBytes nor MaxEntries: 2 GiB, a few paper-resolution ROMs.
const DefaultMaxBytes = 2 << 30

// Options configures a Cache.
type Options struct {
	// MaxBytes bounds the in-memory LRU by model size — the sum of the
	// cached ROMs' MemoryBytes (basis vectors dominate; hundreds of MB per
	// model at paper resolution). Admission is by bytes so one large
	// lattice cannot evict an entire working set of small ones the way an
	// entry-count bound would let it. A single model larger than the whole
	// budget is still admitted (alone); otherwise the cache could never
	// serve it. When both MaxBytes and MaxEntries are zero, MaxBytes
	// defaults to DefaultMaxBytes.
	MaxBytes int64
	// MaxEntries optionally bounds the LRU by entry count as well
	// (0 = no entry bound). Kept for callers that want a hard model count
	// on top of the byte budget.
	MaxEntries int
	// Dir enables disk spill: every built model is written to
	// Dir/<key>.rom (write-through), and an in-memory miss tries the disk
	// before re-running the local stage. Empty disables spill.
	Dir string
	// Workers is the local-stage parallelism for cache-miss builds
	// (0 = GOMAXPROCS).
	Workers int
	// Build overrides the local stage (used by tests); defaults to
	// rom.Build.
	Build func(spec rom.Spec, workers int) (*rom.ROM, error)
	// Size overrides the per-model byte accounting (used by tests);
	// defaults to the model's recorded Stats.MemoryBytes with a structural
	// recount as fallback.
	Size func(r *rom.ROM) int64
	// SweepAge is the age past which crash leftovers in Dir — orphaned
	// .tmp spill files and .lock files whose writer died — are removed,
	// both by the sweep at New and when breaking a stale lock (default
	// 15 minutes; a live spill holds either for far less). Only meaningful
	// with Dir set.
	SweepAge time.Duration
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts Get calls served without running the local stage
	// (in-memory, disk, or by joining another caller's in-flight build).
	Hits int64
	// Misses counts Get calls that ran the local stage.
	Misses int64
	// DiskHits counts the subset of Hits served by loading a spilled model.
	DiskHits int64
	// Evictions counts models dropped from the in-memory LRU.
	Evictions int64
	// BuildTime is the cumulative local-stage time paid by misses.
	BuildTime time.Duration
	// Entries is the current in-memory model count.
	Entries int
	// Bytes is the current in-memory model footprint; MaxBytes is the
	// budget it is admitted against (0 = entry-count bound only).
	Bytes, MaxBytes int64
	// SpillSkips counts saveDisk calls that stood down because another
	// writer held the key's lock or had already spilled the model.
	SpillSkips int64
	// DiskCorrupt counts spill files rejected by the checksum trailer or
	// decoder and removed (the build then runs as a plain miss).
	DiskCorrupt int64
	// Swept counts crash leftovers (orphan .tmp, stale .lock) removed
	// from the spill directory.
	Swept int64
}

// Cache is a content-addressed ROM cache, safe for concurrent use.
type Cache struct {
	opt    Options
	flight group[*rom.ROM]

	mu sync.Mutex
	// guarded by mu
	entries map[string]*list.Element
	lru     *list.List // guarded by mu; front = most recently used
	bytes   int64      // guarded by mu; sum of resident entry sizes

	hits, misses, diskHits, evictions atomic.Int64
	buildNanos                        atomic.Int64
	spillSkips, diskCorrupt, swept    atomic.Int64
}

type cacheEntry struct {
	key   string
	rom   *rom.ROM
	bytes int64
}

// New creates a cache. A zero Options is valid: a DefaultMaxBytes budget,
// no entry cap, no disk spill, GOMAXPROCS build workers.
func New(opt Options) *Cache {
	if opt.MaxBytes <= 0 && opt.MaxEntries <= 0 {
		opt.MaxBytes = DefaultMaxBytes
	}
	if opt.Build == nil {
		opt.Build = rom.Build
	}
	if opt.Size == nil {
		opt.Size = romBytes
	}
	if opt.SweepAge <= 0 {
		opt.SweepAge = 15 * time.Minute
	}
	c := &Cache{
		opt:     opt,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
	if opt.Dir != "" {
		c.sweepOrphans()
	}
	return c
}

// sweepOrphans removes crash leftovers from the spill directory: .tmp files
// a dead writer never renamed and .lock files it never released, both aged
// past SweepAge so in-flight spills by live replicas are left alone.
func (c *Cache) sweepOrphans() {
	ents, err := os.ReadDir(c.opt.Dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.Contains(name, ".tmp") && !strings.HasSuffix(name, ".lock") {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) <= c.opt.SweepAge {
			continue
		}
		if os.Remove(filepath.Join(c.opt.Dir, name)) == nil {
			c.swept.Add(1)
		}
	}
}

// romBytes is the default Size: the footprint Build and Load record (basis
// and cut-plane slab included), recounted structurally for a model
// assembled without one.
func romBytes(r *rom.ROM) int64 {
	if b := r.Stats.MemoryBytes; b > 0 {
		return b
	}
	var b int64
	for _, f := range r.Basis {
		b += int64(len(f)) * 8
	}
	b += int64(len(r.BasisT)) * 8
	if r.Aelem != nil {
		b += int64(len(r.Aelem.Data)) * 8
	}
	b += int64(len(r.Belem)) * 8
	return b
}

// Get returns the ROM for spec, running the local stage only when the model
// is in neither memory nor disk and no equivalent build is already in
// flight. The boolean reports whether the call avoided the local stage.
func (c *Cache) Get(spec rom.Spec) (*rom.ROM, bool, error) {
	key, err := Key(spec)
	if err != nil {
		return nil, false, err
	}
	if r := c.lookup(key); r != nil {
		c.hits.Add(1)
		return r, true, nil
	}
	built := false
	r, err, shared := c.flight.Do(key, func() (*rom.ROM, error) {
		// Another flight may have inserted the model between our lookup
		// and acquiring the flight slot.
		if r := c.lookup(key); r != nil {
			return r, nil
		}
		if r := c.loadDisk(key); r != nil {
			c.diskHits.Add(1)
			c.insert(key, r)
			return r, nil
		}
		built = true
		start := time.Now()
		r, err := c.opt.Build(spec, c.opt.Workers)
		if err != nil {
			return nil, err
		}
		c.buildNanos.Add(int64(time.Since(start)))
		c.insert(key, r)
		c.saveDisk(key, r)
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	hit := shared || !built
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, hit, nil
}

// Contains reports whether the model for spec is currently in memory,
// without touching LRU order or counters.
func (c *Cache) Contains(spec rom.Spec) bool {
	key, err := Key(spec)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n, b := len(c.entries), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		DiskHits:    c.diskHits.Load(),
		Evictions:   c.evictions.Load(),
		BuildTime:   time.Duration(c.buildNanos.Load()),
		Entries:     n,
		Bytes:       b,
		MaxBytes:    c.opt.MaxBytes,
		SpillSkips:  c.spillSkips.Load(),
		DiskCorrupt: c.diskCorrupt.Load(),
		Swept:       c.swept.Load(),
	}
}

func (c *Cache) lookup(key string) *rom.ROM {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).rom
}

func (c *Cache) insert(key string, r *rom.ROM) {
	size := c.opt.Size(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.bytes
		e.rom, e.bytes = r, size
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, rom: r, bytes: size})
	c.bytes += size
	// Evict from the cold end until both budgets hold, but never the entry
	// just admitted: a single model over the whole byte budget still serves
	// (it simply shares the cache with nothing).
	for c.lru.Len() > 1 && c.overBudgetLocked() {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		delete(c.entries, e.key)
		c.lru.Remove(back)
		c.bytes -= e.bytes
		c.evictions.Add(1)
	}
}

// overBudgetLocked reports whether either configured bound is exceeded.
// Callers hold c.mu.
func (c *Cache) overBudgetLocked() bool {
	if c.opt.MaxBytes > 0 && c.bytes > c.opt.MaxBytes {
		return true
	}
	return c.opt.MaxEntries > 0 && c.lru.Len() > c.opt.MaxEntries
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.opt.Dir, key+".rom")
}

// Spill files end in a fixed-size trailer so loadDisk can verify payload
// integrity without trusting the gob decoder to notice corruption:
//
//	[ CRC-32C of payload | 4 B LE ][ payload length | 8 B LE ][ magic | 8 B ]
//
// Files without the trailer (spilled by older builds) are still accepted and
// verified by spec-hash alone.
const (
	trailerLen   = 20
	trailerMagic = "MSROMCK1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadDisk restores a spilled model, returning nil on any failure: a
// missing, truncated, or corrupt spill file is a plain cache miss (the spill
// is a performance hint, not a source of truth), and a checksum or decode
// failure removes the bad file so the fresh build can replace it. A
// well-formed file whose content hashes to a different key is likewise
// rejected.
func (c *Cache) loadDisk(key string) *rom.ROM {
	if c.opt.Dir == "" {
		return nil
	}
	f, err := os.Open(c.diskPath(key))
	if err != nil {
		return nil
	}
	defer f.Close()
	payload, verified, err := verifyTrailer(f)
	if err != nil {
		c.dropCorrupt(key)
		return nil
	}
	var src io.Reader = f
	if verified {
		src = io.LimitReader(f, payload)
	}
	r, err := rom.Load(src)
	if err != nil {
		c.dropCorrupt(key)
		return nil
	}
	if got, err := Key(r.Spec); err != nil || got != key {
		c.dropCorrupt(key)
		return nil
	}
	return r
}

func (c *Cache) dropCorrupt(key string) {
	os.Remove(c.diskPath(key))
	c.diskCorrupt.Add(1)
}

// verifyTrailer checks f's checksum trailer and leaves f positioned at the
// start of the payload. verified is false for legacy trailer-less files
// (payload is then unknown and f reads to EOF); err reports a trailer whose
// checksum or length does not match the payload — corruption, not legacy.
func verifyTrailer(f *os.File) (payload int64, verified bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := st.Size()
	var tr [trailerLen]byte
	if size < trailerLen {
		return size, false, nil
	}
	if _, err := f.ReadAt(tr[:], size-trailerLen); err != nil {
		return 0, false, err
	}
	if string(tr[12:20]) != trailerMagic {
		return size, false, nil // legacy spill: no trailer
	}
	payload = int64(binary.LittleEndian.Uint64(tr[4:12]))
	if payload != size-trailerLen {
		return 0, false, fmt.Errorf("romcache: trailer claims %d payload bytes of a %d-byte file", payload, size)
	}
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, io.LimitReader(f, payload)); err != nil {
		return 0, false, err
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(tr[0:4]) {
		return 0, false, fmt.Errorf("romcache: spill payload checksum mismatch")
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, false, err
	}
	return payload, true, nil
}

// saveDisk spills a built model (write-through) crash-safely: the payload and
// its checksum trailer go to a temp file that is fsynced before an atomic
// rename, and the directory is fsynced after, so a spill either exists whole
// and verified or not at all. An O_EXCL lock file serializes writers per key —
// N replicas mounting one cache dir spill each model exactly once. Spill
// failures are ignored: the in-memory model is intact and the next miss
// simply rebuilds.
func (c *Cache) saveDisk(key string, r *rom.ROM) {
	if c.opt.Dir == "" {
		return
	}
	if err := os.MkdirAll(c.opt.Dir, 0o755); err != nil {
		return
	}
	unlock, ok := c.lockKey(key)
	if !ok {
		c.spillSkips.Add(1)
		return
	}
	defer unlock()
	if _, err := os.Stat(c.diskPath(key)); err == nil {
		// Already spilled (content-addressed: same key, same bytes) — by
		// this process earlier or by another replica sharing the dir.
		c.spillSkips.Add(1)
		return
	}
	tmp, err := os.CreateTemp(c.opt.Dir, key+".tmp*")
	if err != nil {
		return
	}
	discard := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	crc := crc32.New(castagnoli)
	if err := r.Save(io.MultiWriter(tmp, crc)); err != nil {
		discard()
		return
	}
	payload, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		discard()
		return
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:4], crc.Sum32())
	binary.LittleEndian.PutUint64(tr[4:12], uint64(payload))
	copy(tr[12:20], trailerMagic)
	if _, err := tmp.Write(tr[:]); err != nil {
		discard()
		return
	}
	if err := tmp.Sync(); err != nil {
		discard()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	syncDir(c.opt.Dir)
}

// lockKey takes the per-key single-writer lock with an O_EXCL create. A held
// lock means another writer (possibly in another process) is spilling this
// model; the caller stands down rather than double-writing. A lock older
// than SweepAge is a crash leftover and is broken once.
func (c *Cache) lockKey(key string) (unlock func(), ok bool) {
	path := filepath.Join(c.opt.Dir, key+".lock")
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, true
		}
		st, serr := os.Stat(path)
		if serr != nil || time.Since(st.ModTime()) <= c.opt.SweepAge {
			return nil, false
		}
		if os.Remove(path) == nil {
			c.swept.Add(1)
		}
	}
	return nil, false
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
