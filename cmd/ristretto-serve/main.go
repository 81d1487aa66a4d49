// Command ristretto-serve runs the simulation-as-a-service daemon: the
// repository's engines (analytic model, cycle-accurate core simulator,
// quantization sweep, conformance spot-checks) behind the hardened HTTP
// layer of internal/server — a response memo for /v1/model, /v1/sim and
// /v1/quant, admission control with load shedding, per-request deadlines
// and panic isolation, a circuit breaker that degrades cycle-accurate
// answers to the analytic model under queue pressure, and graceful drain
// on SIGINT/SIGTERM (exit 0).
//
// Usage:
//
//	ristretto-serve [-addr :8390] [-max-concurrent N] [-queue 64]
//	                [-deadline 15s] [-max-deadline 2m] [-max-body 1048576]
//	                [-breaker-threshold 250ms] [-breaker-cooldown 2s]
//	                [-breaker-hard-factor 4] [-cache-entries 4096]
//	                [-batch-queue-share N]
//	                [-tenant-rate 0] [-tenant-burst N] [-max-tenants 10000]
//	                [-default-scale 16] [-drain-grace 30s]
//	                [-cell-cache-dir dir] [-cell-cache-max-bytes 0]
//	                [-fault spec] [-disk-fault spec] [-version]
//	                [-cpuprofile f] [-memprofile f] [-trace f] [-pprof addr]
//
// Endpoints: POST /v1/model, /v1/sim, /v1/quant, /v1/conformance, and
// /v1/cell — one full sweep cell per request, the unit of work
// ristretto-fleet distributes; -cell-cache-dir arms a content-addressed
// on-disk cache of cell payloads keyed by fingerprint; the cache is
// scrubbed on open (corrupt entries deleted), -cell-cache-max-bytes bounds
// its footprint, and persistent write failures degrade it to read-only
// instead of failing requests.
// GET /healthz, /readyz, /metrics. The -fault flag takes the same
// seed-deterministic schedule spec as the batch CLIs (see EXPERIMENTS.md)
// and injects it into request handling — the chaos CI job uses it to prove
// injected panics 500 one request without killing the daemon. -disk-fault
// threads the seed-deterministic disk fault FS (ENOSPC, EIO, failed fsync,
// torn writes, bit rot — see EXPERIMENTS.md) under the cell cache; the
// disk-chaos job uses it to prove a rotting worker cache still serves
// correct payloads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ristretto/internal/cellcache"
	"ristretto/internal/faultinject"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8390", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent compute requests (0 = NumCPU)")
	queue := flag.Int("queue", 64, "admission queue depth; excess load is shed with 429")
	deadline := flag.Duration("deadline", 15*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on client-requested deadlines")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	breakerThreshold := flag.Duration("breaker-threshold", 250*time.Millisecond, "queue wait that degrades /v1/sim to the analytic model (negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long the breaker stays open after the last slow wait")
	breakerHardFactor := flag.Int("breaker-hard-factor", 0, "multiple of breaker-threshold at which interactive traffic also degrades (0 = 4)")
	cacheEntries := flag.Int("cache-entries", 0, "memo cache capacity for /v1/model, /v1/sim and /v1/quant (0 = 4096, negative disables)")
	batchQueueShare := flag.Int("batch-queue-share", 0, "admission-queue places the batch priority class may occupy (0 = queue/2)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant token refill in requests/second (0 disables quotas)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant token bucket capacity (0 = max(1, tenant-rate))")
	maxTenants := flag.Int("max-tenants", 0, "tracked tenant buckets before overflow tenants share one (0 = 10000)")
	defaultScale := flag.Int("default-scale", 16, "spatial scale-down applied when a request names none")
	cellCacheDir := flag.String("cell-cache-dir", "", "directory for the content-addressed /v1/cell payload cache (empty disables)")
	cellCacheMaxBytes := flag.Int64("cell-cache-max-bytes", 0, "cell cache capacity bound in bytes; excess entries are evicted second-chance (0 = unbounded)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	faultSpec := flag.String("fault", "", "fault-injection schedule for request handling (e.g. seed=7,panic=0.05,delay=0.2:5ms)")
	diskFaultSpec := flag.String("disk-fault", "", "disk fault-injection spec for the cell cache (e.g. path=cells/*,seed=7,bit-rot=0.2)")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	var prof telemetry.Profiler
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-serve"))
		return
	}
	log.SetPrefix("ristretto-serve: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	var sched *faultinject.Schedule
	if !spec.Zero() {
		sched = faultinject.New(spec)
		log.Printf("fault injection armed: %q", *faultSpec)
	}

	if err := prof.Start(); err != nil {
		fatal(err)
	}

	diskSpec, err := faultinject.ParseDiskSpec(*diskFaultSpec)
	if err != nil {
		fatal(err)
	}

	var cells *cellcache.Cache
	if *cellCacheDir != "" {
		fsys := faultinject.NewDiskFS(diskSpec, nil)
		if !diskSpec.Zero() {
			log.Printf("disk fault injection armed: %q", *diskFaultSpec)
		}
		cells, err = cellcache.OpenWith(*cellCacheDir, nil, cellcache.Options{
			FS:          fsys,
			MaxBytes:    *cellCacheMaxBytes,
			ScrubOnOpen: true,
		})
		if err != nil {
			fatal(err)
		}
		n, lerr := cells.Len()
		if lerr != nil {
			log.Printf("cell cache at %s (census failed: %v)", cells.Dir(), lerr)
		} else {
			log.Printf("cell cache at %s (%d entries)", cells.Dir(), n)
		}
	}

	srv := server.New(server.Config{
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *queue,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		MaxBodyBytes:      *maxBody,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		BreakerHardFactor: *breakerHardFactor,
		CacheEntries:      *cacheEntries,
		BatchQueueShare:   *batchQueueShare,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		MaxTenants:        *maxTenants,
		DefaultScale:      *defaultScale,
		CellCache:         cells,
		Fault:             sched,
	})
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigs:
		log.Printf("received %v: draining (in-flight: %d, grace %v)", sig, srv.QueueDepth(), *drainGrace)
	case err := <-serveErr:
		fatal(err) // listener died before any signal
	}

	// Graceful drain: readiness flips first so load balancers stop sending,
	// then Shutdown closes the listener and waits for in-flight requests.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		code = 1
	} else {
		log.Printf("drained cleanly")
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve error: %v", err)
		code = 1
	}
	if err := prof.Stop(); err != nil {
		log.Printf("profiler stop: %v", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-serve:", err)
	os.Exit(1)
}
