// Command ristretto-load drives open-loop traffic at a running
// ristretto-serve daemon and reports what came back: status-code mix, shed
// (429) and degraded (degraded=true) counts, and latency quantiles. The CI
// serve job uses it to prove the daemon sheds rather than collapses at
// saturation and keeps serving under fault injection.
//
// Usage:
//
//	ristretto-load -addr http://127.0.0.1:8390 [-rps 50] [-duration 10s]
//	               [-timeout 10s] [-inflight 1024] [-seed 1]
//	               [-mix model=6,sim=1,quant=2,conformance=1]
//	               [-net ResNet-18] [-layer conv3_2] [-precision 4b]
//	               [-scale 16] [-keys 1] [-key-skew 1.2]
//	               [-tenants 0] [-tenant-skew 1.2] [-batch-frac 0]
//	               [-json] [-version]
//
// Multi-tenant mode (-tenants > 0 or -batch-frac > 0) tags every request
// with X-Tenant / X-Priority headers, draws tenants and hot request keys
// from zipfian distributions, and reports per-class tallies (shed,
// quota-denied, degraded, p99) plus the cache-hit count — the traffic
// shape the serving-scale CI gates assert on.
//
// Exit status: 0 when the run completed and the server answered (any
// status codes — shedding is healthy behaviour); 1 when the server was
// unreachable for most of the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ristretto/internal/loadtest"
	"ristretto/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8390", "server base URL")
	rps := flag.Float64("rps", 50, "open-loop request rate per second")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	inflight := flag.Int("inflight", 1024, "in-flight request cap (arrivals beyond it are dropped, not queued)")
	seed := flag.Int64("seed", 1, "mix/pick seed")
	mix := flag.String("mix", "model=6,sim=1,quant=2,conformance=1", "traffic mix weights (target=weight, 0 removes)")
	net := flag.String("net", "ResNet-18", "network for model/sim requests")
	layer := flag.String("layer", "conv3_2", "layer for sim requests")
	precision := flag.String("precision", "4b", "precision for model/sim requests")
	scale := flag.Int("scale", 16, "spatial scale-down for model/sim requests")
	keys := flag.Int("keys", 1, "distinct request bodies per target (seeds seed..seed+keys-1)")
	keySkew := flag.Float64("key-skew", 0, "zipf s for hot-key picks among -keys bodies (0 = 1.2, must be > 1)")
	tenants := flag.Int("tenants", 0, "synthetic tenants to spread traffic over via X-Tenant (0 = no header)")
	tenantSkew := flag.Float64("tenant-skew", 0, "zipf s for tenant picks (0 = 1.2, must be > 1)")
	batchFrac := flag.Float64("batch-frac", 0, "fraction of requests tagged X-Priority: batch (0..1)")
	asJSON := flag.Bool("json", false, "print the report as JSON")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-load"))
		return
	}
	if *rps <= 0 {
		fatal(fmt.Errorf("invalid -rps %v: must be > 0", *rps))
	}
	if *duration <= 0 {
		fatal(fmt.Errorf("invalid -duration %v: must be > 0", *duration))
	}

	targets, err := buildMix(*mix, *net, *layer, *precision, *scale, *seed, *keys)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadtest.Run(ctx, loadtest.Config{
		BaseURL:       strings.TrimRight(*addr, "/"),
		RPS:           *rps,
		Duration:      *duration,
		Timeout:       *timeout,
		MaxInFlight:   *inflight,
		Seed:          *seed,
		Targets:       targets,
		Tenants:       *tenants,
		TenantSkew:    *tenantSkew,
		KeySkew:       *keySkew,
		BatchFraction: *batchFrac,
	})
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(rep.String())
	}

	// Shed/degraded/5xx responses are the daemon behaving as designed under
	// stress; only a server that mostly failed to answer at all is a load
	// failure.
	if rep.Completed == 0 || rep.TransportErrors > rep.Completed/2 {
		fmt.Fprintf(os.Stderr, "ristretto-load: server unreachable (%d/%d transport errors)\n",
			rep.TransportErrors, rep.Completed)
		os.Exit(1)
	}
}

// buildMix reweights the default traffic mix by the -mix flag; keys > 1
// expands each target into that many distinct bodies for hot-key runs.
func buildMix(spec, net, layer, precision string, scale int, seed int64, keys int) ([]loadtest.Target, error) {
	base := loadtest.DefaultMix(net, layer, precision, scale, seed)
	if keys > 1 {
		base = loadtest.MultiKeyMix(net, layer, precision, scale, seed, keys)
	}
	weights := map[string]int{}
	for _, t := range base {
		weights[t.Name] = t.Weight
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix pair %q (want target=weight)", kv)
		}
		if _, known := weights[name]; !known {
			return nil, fmt.Errorf("unknown -mix target %q (allowed: model, sim, quant, conformance)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q for %s", val, name)
		}
		weights[name] = w
	}
	var out []loadtest.Target
	for _, t := range base {
		if w := weights[t.Name]; w > 0 {
			t.Weight = w
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix %q removes every target", spec)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-load:", err)
	os.Exit(1)
}
