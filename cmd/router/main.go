// Command router fronts a fleet of serve replicas with cache-affine,
// health-aware request routing. Each request's lattice key — the same
// "ROM spec SHA-256 | dims | BC" string the engine keys its assembly,
// preconditioner, factor, and warm-start caches by — is mapped to a replica
// with rendezvous (highest-random-weight) hashing, so repeated traffic for
// one lattice keeps landing where that lattice's caches are already warm.
// Placement depends only on the key and the replica URL list: every router
// instance (and the same one after a restart) agrees, so routers are
// stateless and horizontally scalable.
//
// # Surface
//
// The router mirrors the replica surface:
//
//	POST   /solve             routed by the scenario's lattice key
//	POST   /batch             split by lattice key; sub-batches fan out to
//	                          their owners concurrently, results merge back
//	                          into input order
//	POST   /jobs              routed by the first scenario's lattice key;
//	                          the returned ID is prefixed "s<replica>-" so
//	                          lifecycle requests route statelessly
//	GET    /jobs/{id}         forwarded to the owning replica
//	GET    /jobs/{id}/events  SSE passthrough (streamed, flushed per chunk)
//	DELETE /jobs/{id}         forwarded to the owning replica
//	GET    /stats             fleet aggregate + per-replica breakdown +
//	                          router forwarding counters
//	GET    /healthz           router liveness (always 200)
//	GET    /readyz            200 while at least one replica is up
//
// # Health and failover
//
// Each replica's /readyz is probed every -probe-interval: probing readiness
// rather than liveness keeps traffic out of a replica's journal-recovery
// window (the process is up, but mutating endpoints answer 503 until the
// replay finishes). When a forward fails — transport error, or a
// 502/503/504 — the replica is marked down and the request retries on the
// next replica in the key's rendezvous order, with linear backoff, bounded
// by -retries. Rendezvous failover is itself deterministic: a dead
// replica's keyspace lands coherently on single replacements (~1/k of the
// keyspace each) instead of scattering per request, and moves back when the
// replica returns. Job lifecycle requests (GET/DELETE /jobs/{id}) do not
// fail over — a job exists only where it was accepted.
//
// # A three-replica walkthrough
//
// Start three replicas and a router:
//
//	$ serve -addr :8081 -journal-dir /var/lib/ms/j1 &
//	$ serve -addr :8082 -journal-dir /var/lib/ms/j2 &
//	$ serve -addr :8083 -journal-dir /var/lib/ms/j3 &
//	$ router -addr :8080 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Solve through the router; repeats of the same lattice hit the same
// replica's warm caches:
//
//	$ curl -s localhost:8080/solve -d '{"rows":20,"cols":20,"deltaT":-250}'
//	{"converged":true,...,"cacheHit":false,...}
//	$ curl -s localhost:8080/solve -d '{"rows":20,"cols":20,"deltaT":-200}'
//	{"converged":true,...,"cacheHit":true,...}      # same replica, warm ROM + assembly
//
// Submit an async job and follow it through the router — the ID carries its
// replica:
//
//	$ curl -s localhost:8080/jobs -d '{"jobs":[{"rows":30,"cols":30}]}'
//	{"id":"s2-f9a31c0e21d4b007","state":"pending",...,"poll":"/jobs/s2-f9a31c0e21d4b007",...}
//	$ curl -s localhost:8080/jobs/s2-f9a31c0e21d4b007
//	{"id":"f9a31c0e21d4b007","state":"done",...}    # body IDs stay replica-local
//
// Kill a replica; its keyspace fails over to the next shard in rendezvous
// order, the rest of the fleet keeps its placement:
//
//	$ kill -9 %2
//	$ curl -s localhost:8080/solve -d '{"rows":20,"cols":20,"deltaT":-150}'
//	{"converged":true,...}                          # rerouted, re-warms on the survivor
//
// And inspect the fleet:
//
//	$ curl -s localhost:8080/stats | jq '.router.replicas, .fleet.shards'
//
// Usage:
//
//	router -replicas URL[,URL...] [-addr :8080]
//	       [-probe-interval 500ms] [-probe-timeout 2s]
//	       [-retries 2N] [-backoff 50ms]
//	       [-precond auto] [-ordering auto]
//
// -precond/-ordering only feed request validation during key derivation
// (the lattice key does not depend on solver options); they should match
// the replicas' flags. The router never resolves "auto" itself: the
// replicas do, by a rule fixed in code.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	morestress "repro"
	"repro/internal/router"
)

//stressvet:gang -- one goroutine carries ListenAndServe so main can select on shutdown signals
func main() {
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "replica /readyz probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	retries := flag.Int("retries", 0, "max forwarding attempts per request across the failover order (0 = twice per replica)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base pause between failover attempts (grows linearly)")
	precondFlag := flag.String("precond", "auto", "default preconditioner assumed during request validation (match the replicas)")
	orderingFlag := flag.String("ordering", "auto", "default IC0 ordering assumed during request validation (match the replicas)")
	precisionFlag := flag.String("precision", "auto", "default IC0 factor precision assumed during request validation (match the replicas)")
	flag.Parse()

	precond, err := morestress.ParsePrecond(*precondFlag)
	if err != nil {
		log.Fatal(err)
	}
	ordering, err := morestress.ParseOrdering(*orderingFlag)
	if err != nil {
		log.Fatal(err)
	}
	precision, err := morestress.ParsePrecision(*precisionFlag)
	if err != nil {
		log.Fatal(err)
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("router: -replicas is required (comma-separated base URLs)")
	}
	proxy, err := router.NewProxy(router.ProxyOptions{
		Replicas:      urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Retries:       *retries,
		Backoff:       *backoff,
		Precond:       precond,
		Ordering:      ordering,
		Precision:     precision,
	})
	if err != nil {
		log.Fatal(err)
	}
	proxy.Start()
	defer proxy.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: proxy.Routes()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("router: listening on %s, fronting %d replicas: %s", *addr, len(urls), strings.Join(urls, ", "))
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("router: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("router: shutdown: %v", err)
	}
}
