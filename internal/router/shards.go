package router

import (
	"fmt"
	"sync"
	"time"

	morestress "repro"
	"repro/internal/romcache"
)

// Shards serves jobs on N in-process engines, each owning the slice of
// lattice keyspace the rendezvous table assigns it. It implements
// morestress.Solver, so the HTTP layer and the async job queue run over it
// unchanged: every Solve routes by the job's LatticeKey, which means a
// lattice's assembly, preconditioner, unit-load solution, and factorization
// all live in exactly one engine — shard counts scale the lattice working
// set without the caches contending or duplicating.
type Shards struct {
	table   *Table
	engines []*morestress.Engine
	// sharedCache marks that every engine was built over one ROM cache
	// (NewShards always wires it that way); Stats then reports the cache
	// section once instead of N times.
	sharedCache bool
}

// NewShards builds n engines behind one rendezvous table. The engines share
// a single content-addressed ROM cache built from opt (the ROM of a unit
// cell is lattice-independent, so sharding it would only multiply local-
// stage builds); everything lattice-keyed stays private per engine.
// opt.Workers is the total engine-job concurrency, split evenly across
// shards (each shard gets at least 1).
func NewShards(n int, opt morestress.EngineOptions) *Shards {
	if n < 1 {
		n = 1
	}
	shared := opt.SharedCache
	if shared == nil {
		shared = romcache.New(romcache.Options{
			MaxBytes:   opt.CacheBytes,
			MaxEntries: opt.CacheEntries,
			Dir:        opt.CacheDir,
		})
	}
	per := opt
	per.SharedCache = shared
	if opt.Workers > 0 {
		per.Workers = opt.Workers / n
		if per.Workers < 1 {
			per.Workers = 1
		}
	}
	s := &Shards{
		engines:     make([]*morestress.Engine, n),
		sharedCache: true,
	}
	names := make([]string, n)
	for i := range s.engines {
		s.engines[i] = morestress.NewEngine(per)
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	s.table = NewTable(names)
	return s
}

// Len returns the shard count.
func (s *Shards) Len() int { return len(s.engines) }

// ShardFor returns the index of the shard owning the job's lattice.
func (s *Shards) ShardFor(job morestress.Job) int {
	return s.table.Pick(morestress.LatticeKey(job))
}

// Solve routes the job to its lattice's shard.
func (s *Shards) Solve(job morestress.Job) (*morestress.JobResult, error) {
	return s.engines[s.ShardFor(job)].Solve(job)
}

// BatchSolve partitions the batch by owning shard and runs each partition
// as a sub-batch on its engine, concurrently across shards. Each engine
// keeps its own BatchSolve semantics within the partition — assembly and
// unit-load solution sharing — and results come back in input
// order with per-batch stats summed. Wall is the cross-shard wall time.
//
//stressvet:gang -- one goroutine per non-empty shard partition, bounded by the shard count
func (s *Shards) BatchSolve(jobs []morestress.Job) *morestress.BatchResult {
	start := time.Now()
	parts := make([][]int, len(s.engines))
	for i, job := range jobs {
		sh := s.ShardFor(job)
		parts[sh] = append(parts[sh], i)
	}
	out := &morestress.BatchResult{Results: make([]morestress.JobResult, len(jobs))}
	subs := make([]*morestress.BatchResult, len(s.engines))
	var wg sync.WaitGroup
	for sh, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			sub := make([]morestress.Job, len(idxs))
			for k, i := range idxs {
				sub[k] = jobs[i]
			}
			subs[sh] = s.engines[sh].BatchSolve(sub)
		}(sh, idxs)
	}
	wg.Wait()
	st := &out.Stats
	for sh, idxs := range parts {
		sub := subs[sh]
		if sub == nil {
			continue
		}
		for k, i := range idxs {
			out.Results[i] = sub.Results[k]
			out.Results[i].Index = i
		}
		st.Errors += sub.Stats.Errors
		st.CacheHits += sub.Stats.CacheHits
		st.CacheMisses += sub.Stats.CacheMisses
		st.LocalTime += sub.Stats.LocalTime
		st.GlobalTime += sub.Stats.GlobalTime
		st.Iterations += sub.Stats.Iterations
		st.WarmStarts += sub.Stats.WarmStarts
	}
	st.Jobs = len(jobs)
	st.Wall = time.Since(start)
	return out
}

// Stats merges the per-shard engine snapshots into one EngineStats, the
// view a single engine serving the union of the traffic would report. The
// shared ROM cache is counted once.
func (s *Shards) Stats() morestress.EngineStats {
	merged := s.engines[0].Stats()
	for _, e := range s.engines[1:] {
		st := e.Stats()
		if s.sharedCache {
			st.Cache = romcache.Stats{}
		}
		merged.Merge(st)
	}
	return merged
}

// PerShard returns each shard's own engine snapshot, in shard order — the
// affinity evidence: under HRW routing, a given lattice's assembly and
// preconditioner builds appear in exactly one entry.
func (s *Shards) PerShard() []morestress.EngineStats {
	out := make([]morestress.EngineStats, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Stats()
	}
	return out
}
