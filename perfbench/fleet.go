package main

// The fleet layers (fleet dispatch, the coordinator's cell cache and
// journal, the workers' /v1/cell path) are measured in traced runs:
// fleet.Run sweeps the 22 suite cells for one network over two in-process
// ristretto-serve workers with one compute slot each, then sweeps again
// from the cache. The merged output must equal a serial AllChecked of the
// same sweep, which also gives each cell's time and the work the fleet
// amplifies.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"ristretto/internal/experiments"
	"ristretto/internal/fleet"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
)

// warmSweeps is how many sweeps the fleet replay serves from its cache.
const warmSweeps = 20

// fleetLayers runs the fleet replay and fills the fleet.* and
// cellcache.hit_ratio metrics, and the server.* ones when the workload has
// not measured its own server.
func (r *run) fleetLayers(parent int, seed int64, scale int, nets []string) {
	sp := r.tr.begin("replay.fleet", parent)
	defer r.tr.end(sp)
	var workers []*serverSys
	defer func() {
		for _, w := range workers {
			if err := w.Close(); err != nil {
				r.problem("stopping a fleet worker: %v", err)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		w, err := startServer(server.Config{MaxConcurrent: 1})
		if err != nil {
			r.problem("starting a fleet worker: %v", err)
			return
		}
		workers = append(workers, w)
	}
	cacheDir, err := r.tempDir("fleet-cells")
	if err != nil {
		r.problem("fleet cache dir: %v", err)
		return
	}
	reg := telemetry.NewRegistry()
	sweep := func(name, journal string) ([]byte, fleet.Report) {
		cfg := fleet.Config{Seed: seed, Scale: scale, Nets: append([]string(nil), nets...),
			CacheDir: cacheDir, DeadlineMS: 110000, Registry: reg}
		if journal != "" {
			cfg.JournalPath = filepath.Join(r.tmp, journal)
		}
		for _, w := range workers {
			cfg.Workers = append(cfg.Workers, w.url)
		}
		var rs []*experiments.Result
		var rep fleet.Report
		var err error
		r.tr.timed(name, sp, func(int) { rs, rep, err = fleet.Run(context.Background(), cfg) })
		if !sweepOK(rs, err) || rep.Failures != 0 {
			r.problem("%s: %v, %d failures", name, err, rep.Failures)
		}
		return render(rs), rep
	}

	out, cold := sweep("fleet cold sweep", "fleet.journal")
	var cellNS, cells int64
	for _, w := range workers {
		h := w.reg.Histogram("server.cell.latency_ns").Summary()
		cellNS, cells = cellNS+h.Sum, cells+h.Count
	}
	for i := 0; i < warmSweeps; i++ {
		if warm, rep := sweep("fleet warm sweep", ""); !bytes.Equal(warm, out) || rep.LocalCacheHits != rep.Cells {
			r.problem("warm fleet sweep %d: %d of %d cells from the cache, output equal to the cold sweep: %v",
				i, rep.LocalCacheHits, rep.Cells, bytes.Equal(warm, out))
		}
	}

	b := experiments.NewQuickBench(seed, scale)
	b.Nets = nets
	b.Workers = 1
	var rs []*experiments.Result
	var serial experiments.RunReport
	r.tr.timed("experiments.AllChecked serial", sp, func(int) { rs, serial, err = b.AllChecked(experiments.RunOptions{}) })
	if !sweepOK(rs, err) || !bytes.Equal(render(rs), out) {
		r.problem("fleet sweep output differs from the serial sweep (%v)", err)
	}

	cellMS := map[string]float64{}
	keys := experiments.CellKeys()
	for i, t := range serial.Timings {
		if i < len(keys) {
			cellMS[keys[i]] = t.Millis
		}
	}
	if _, ok := r.detail["cell_ms"]; !ok {
		r.setDetail("cell_ms", cellMS) // the suite records its own pass instead
	}
	r.setLayer("fleet.steals", float64(cold.Steals))
	r.setLayer("fleet.computed", float64(cold.Computed))
	if serial.Work > 0 {
		r.setLayer("fleet.work_amplification", float64(cellNS)/float64(serial.Work.Nanoseconds()))
	}
	r.setLayer("cellcache.hit_ratio", cacheHitRatio(reg))
	attempt := reg.Histogram("fleet.attempt_ms")
	r.setDetail("fleet_cold_report", cold)
	r.setDetail("fleet.attempt_p50_ms", attempt.Quantile(0.5))
	r.setDetail("work_amplification", fmt.Sprintf("workers' /v1/cell time %.1f ms / serial work %.1f ms",
		float64(cellNS)/1e6, ms(serial.Work)))

	// Server layer, seen from the coordinator, for a workload without a
	// server of its own: queue wait and handling time from worker 0's
	// registry; transport overhead as the coordinator's mean attempt latency
	// minus the workers' mean handling time (the fleet keeps both only as
	// histograms, whose means are exact).
	wreg := workers[0].reg
	r.setDetail("fleet_worker_metrics", wreg.Snapshot())
	if _, ok := r.layer["server.handler_p50_ms"]; ok {
		return
	}
	qw := wreg.Histogram("server.queue_wait_ns")
	r.setLayer("server.queue_wait_p50_ms", qw.Quantile(0.5)/1e6)
	r.setLayer("server.queue_wait_p99_ms", qw.Quantile(0.99)/1e6)
	r.setLayer("server.handler_p50_ms", wreg.Histogram("server.cell.latency_ns").Quantile(0.5)/1e6)
	if a := attempt.Summary(); a.Count > 0 && cells > 0 {
		r.setLayer("server.transport_overhead_ms", a.Mean-float64(cellNS)/float64(cells)/1e6)
	}
}
