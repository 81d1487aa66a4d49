package ristretto

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
)

// This file is the whole-core simulator: all M compute tiles of Figure 7
// run concurrently and contend for the shared output buffer when they drain
// accumulate banks. Compared with SimulateConv (which sums
// per-intersection cycle counts per tile), the core simulator additionally
// models:
//
//   - the initial static-stream load of each round from the tile's local
//     weight buffer (ping-pong hides subsequent loads, not the first);
//   - the shared output buffer's write port: one tile drains per cycle,
//     others queue (aggregation of "results of different compute tiles",
//     Section IV-C4);
//   - true concurrency, so the reported latency is the cycle the last tile
//     retires — enabling cross-tile traces.
//
// The tiles share only the port (and the spatial tiles' accumulators,
// whose int32 adds commute), so the simulation runs in two steps. First
// every compute tile runs its own jobs through the chain kernel, the tiles
// in parallel, and records an untimed timeline: the load and stream cycles
// between its drains and the port cycles each drain needs. Then one serial
// pass places the drains on the port. The port serves the lowest-numbered
// draining tile each cycle, so tile g is blocked on exactly the cycles
// tiles 0..g-1 hold it; timing the tiles in index order against the union
// of the earlier tiles' port spans reproduces, cycle for cycle, a global
// loop that steps every tile each cycle (FuzzCoreSchedule checks it against
// that loop, kept as a test oracle).
//
// Work and traffic accounting follows one convention shared with the tile
// simulator and the analytic model: stalls count every cycle the chain
// cannot advance on FIFO back-pressure; the input buffer is charged 1 B per
// activation atom as it is fed (so re-read every ping-pong round); the
// weight buffer is charged len(chunk) bytes at every chunk start; a drain
// charges a 4 B accumulate-buffer read plus a 4 B output-buffer write per
// drained entry. On those counters — and on Products/Deliveries/Conflicts —
// SimulateCore agrees exactly with the sum of SimulateIntersectionScratch
// results over the same jobs (pinned by the parity suite in
// simparity_test.go).

// CoreSimConfig extends the tile configuration with core-level parameters.
type CoreSimConfig struct {
	Tiles      int
	Tile       TileConfig
	TileW      int
	TileH      int
	Policy     balance.Policy
	LoadWidth  int // weight atoms loaded per cycle into the static registers (default 4)
	DrainWidth int // accumulate-bank entries drained per cycle through the output port (default 8)

	// Trace, when non-nil, receives a compact event stream of tile state
	// transitions (see TraceEvent).
	Trace Tracer
}

func (c CoreSimConfig) withDefaults() CoreSimConfig {
	if c.Tiles == 0 {
		c.Tiles = 4
	}
	c.Tile = c.Tile.withDefaults()
	if c.LoadWidth == 0 {
		c.LoadWidth = 4
	}
	if c.DrainWidth == 0 {
		c.DrainWidth = 8
	}
	return c
}

// CoreSimResult reports a whole-core simulation.
type CoreSimResult struct {
	Output     *tensor.OutputMap
	Cycles     int64   // global cycles until the last tile retires
	TileBusy   []int64 // cycles each tile spent non-idle
	DrainWait  int64   // cycles tiles spent queued on the output port
	LoadCycles int64   // cycles spent loading static streams
	Stalls     int64   // crossbar/FIFO stalls inside tiles (same definition as TileResult.StallCycles)
	Products   int64   // atom multiplications performed
	Deliveries int64   // accumulator deliveries routed through the crossbar
	Conflicts  int64   // crossbar deliveries deferred by a same-bank write
	Stages     telemetry.StageCycles
	Counters   energy.Counters
}

// tileJob is one (input channel, spatial tile) intersection assigned to a
// compute tile.
type tileJob struct {
	acts    []core.ActAtom
	weights []core.WeightAtom
	tile    tensor.Tile
	full    *tensor.OutputMap // the spatial tile's full-convolution accumulator, shared by its jobs
	mu      *sync.Mutex       // guards full against the other compute tiles' drains
}

// drain commits the banks of scratch s into the job's accumulator with the
// decoupled weight-slice shift, holding the accumulator's lock: compute
// tiles on other goroutines drain into the same one, and int32 adds
// commute, so their order cannot change the output.
func (j *tileJob) drain(s *TileScratch, shift uint8, cnt *energy.Counters) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.drainBanks(j.full.Data, shift, cnt)
}

// coreLayer is SimulateCore's offline step: the layer's streams balanced
// onto the compute tiles as per-tile job lists.
type coreLayer struct {
	streams *layerStreams
	jobs    [][]tileJob          // [g]: compute tile g's jobs, channel-major
	fulls   []*tensor.OutputMap  // [ti]: spatial tile ti's accumulator, shared by its jobs
	occ     *telemetry.Histogram // accumulate-bank occupancy at drain (nil = telemetry off)
}

func newCoreLayer(f *tensor.FeatureMap, w *tensor.KernelStack, cfg CoreSimConfig) *coreLayer {
	ls := buildStreams(f, w, cfg.TileW, cfg.TileH, cfg.Tile, false)
	groups := balance.Assign(cfg.Policy, ls.costs, ls.watoms, cfg.Tiles)
	l := &coreLayer{streams: ls, jobs: make([][]tileJob, len(groups)), fulls: ls.accumulators(w)}
	if telemetry.Default.Enabled() {
		l.occ = telemetry.Default.Histogram("ristretto.accbuf.occupancy_entries")
		var actAtoms, wAtoms int64
		for c := 0; c < f.C; c++ {
			actAtoms += int64(ls.tatoms[c])
			wAtoms += int64(ls.watoms[c])
		}
		telemetry.Default.Counter("ristretto.stream.act_atoms").Add(actAtoms)
		telemetry.Default.Counter("ristretto.stream.weight_atoms").Add(wAtoms)
	}
	mus := make([]sync.Mutex, len(ls.tiles))
	for g, chans := range groups {
		jobs := make([]tileJob, 0, len(chans)*len(ls.tiles))
		for _, c := range chans {
			for ti, tl := range ls.tiles {
				jobs = append(jobs, tileJob{acts: ls.acts[c*len(ls.tiles)+ti], weights: ls.weights[c], tile: tl, full: l.fulls[ti], mu: &mus[ti]})
			}
		}
		l.jobs[g] = jobs
	}
	return l
}

// drainReq is one accumulate-bank drain of a compute tile's untimed
// timeline.
type drainReq struct {
	// free counts the load and stream cycles since the previous drain
	// ended (or the tile started), through the slice's last stream cycle.
	free int64
	port int64 // output-port cycles the drain occupies: ⌈entries / DrainWidth⌉
}

// tileEvent is a trace event of an untimed timeline. Its Cycle counts the
// free cycles since drain after-1 ended, or since the start when after is 0.
type tileEvent struct {
	TraceEvent
	after int // drains finished before the event
}

// tileTimeline is what the parallel step records for one compute tile.
type tileTimeline struct {
	drains []drainReq
	tail   int64       // free cycles after the last drain, through the cycle the tile retires
	events []tileEvent // nil unless tracing

	// sum holds the tile's load and stream accounting: LoadCycles, Stalls,
	// the work counts, the stage cycles outside drains and the counters.
	sum CoreSimResult
}

// runTile is the parallel step for one compute tile. It runs the tile's
// jobs through the chain kernel chunk by chunk on scratch s, drains each
// slice's banks into its spatial tile's accumulator and records the tile's
// untimed timeline, with the trace events when cfg.Trace is set.
func runTile(jobs []tileJob, cfg CoreSimConfig, s *TileScratch, occ *telemetry.Histogram) tileTimeline {
	var tl tileTimeline
	trace := cfg.Trace != nil
	sum := &tl.sum
	var free int64
	emit := func(event string, job, chunk int, detail string) {
		tl.events = append(tl.events, tileEvent{TraceEvent{Cycle: free, Event: event, Job: job, Chunk: chunk, Detail: detail}, len(tl.drains)})
	}
	for ji := range jobs {
		j := &jobs[ji]
		if len(j.acts) == 0 || len(j.weights) == 0 {
			continue
		}
		if trace {
			emit("job_start", ji, 0, fmt.Sprintf("acts=%d watoms=%d", len(j.acts), len(j.weights)))
		}
		chunks := s.startJob(j.acts, j.weights, j.tile.W, j.tile.H, j.full, cfg.Tile)
		for ci, chunk := range chunks {
			if trace {
				emit("chunk_start", ji, ci, fmt.Sprintf("m=%d shift=%d", len(chunk), chunk[0].Shift))
			}
			// Static-stream traffic: 1 B per atom every round, the same
			// convention as the tile simulator — the ping-pong registers hide
			// load *latency* beyond the first chunk, not the buffer reads.
			sum.Counters.WeightBufBytes += int64(len(chunk))
			if ci == 0 {
				// The first chunk of a job loads its static stream
				// explicitly, and the stream pipeline waits on the fill: all
				// three stages idle.
				load := int64((len(chunk) + cfg.LoadWidth - 1) / cfg.LoadWidth)
				sum.LoadCycles += load
				sum.Stages.Idle[telemetry.StageAtomizer] += load
				sum.Stages.Idle[telemetry.StageAtomputer] += load
				sum.Stages.Idle[telemetry.StageAtomulator] += load
				free += load
			}
			s.runChunk(chunk)
			s.fold(&sum.Stalls, &sum.Products, &sum.Deliveries, &sum.Conflicts, &sum.Stages, &sum.Counters)
			free += s.tally.Cycles

			// The banks drain through the output port at the end of a slice.
			shift := chunk[0].Shift
			if ci+1 < len(chunks) && chunks[ci+1][0].Shift == shift {
				continue
			}
			entries := len(s.touched)
			if occ != nil {
				occ.Observe(int64(entries))
			}
			if entries == 0 {
				// Nothing accumulated (fully ineffectual slice): no
				// output-port request, no phantom cycle, no traffic.
				continue
			}
			if trace {
				emit("drain_start", ji, ci, "")
			}
			j.drain(s, shift, &sum.Counters)
			tl.drains = append(tl.drains, drainReq{free: free, port: int64((entries + cfg.DrainWidth - 1) / cfg.DrainWidth)})
			free = 0
			if trace {
				emit("drain_end", ji, ci, fmt.Sprintf("entries=%d shift=%d", entries, shift))
			}
		}
	}
	tl.tail = free
	if trace {
		emit("tile_done", len(jobs), 0, "")
	}
	return tl
}

// portSpan is a run of cycles, lo through hi, in which the output port
// serves one tile.
type portSpan struct{ lo, hi int64 }

// placeDrains is the serial step: it times every tile's drains on the
// output port, tiles in index order, and folds the timelines into one
// result. busy is the union of the port spans granted to the tiles placed
// so far; a drain asks for the port from the cycle after its slice's last
// stream cycle and takes the first free cycles it finds, waiting through
// busy ones. The trace events, stamped from the placed timelines, go to tr
// in (cycle, tile) order.
func placeDrains(tls []tileTimeline, tr Tracer) CoreSimResult {
	res := CoreSimResult{TileBusy: make([]int64, len(tls))}
	var busy, grants, merged []portSpan
	var ends []int64 // the cycle each drain of the current tile ends
	var events []TraceEvent
	for g := range tls {
		tl := &tls[g]
		grants, ends = grants[:0], ends[:0]
		t, k := int64(0), 0
		for _, d := range tl.drains {
			req := t + d.free + 1
			c, need := req, d.port
			for need > 0 {
				for k < len(busy) && busy[k].hi < c {
					k++
				}
				if k < len(busy) && busy[k].lo <= c {
					c = busy[k].hi + 1
					continue
				}
				n := need
				if k < len(busy) {
					n = min(n, busy[k].lo-c)
				}
				grants = append(grants, portSpan{c, c + n - 1})
				c += n
				need -= n
			}
			t = c - 1
			ends = append(ends, t)
			// Draining, the upstream stages idle; the Atomulator is busy on
			// the port and stalled while it waits for it.
			wait := t - req + 1 - d.port
			res.DrainWait += wait
			res.Stages.Idle[telemetry.StageAtomizer] += d.port + wait
			res.Stages.Idle[telemetry.StageAtomputer] += d.port + wait
			res.Stages.Busy[telemetry.StageAtomulator] += d.port
			res.Stages.Stall[telemetry.StageAtomulator] += wait
		}
		res.TileBusy[g] = t + tl.tail
		res.Cycles = max(res.Cycles, res.TileBusy[g])
		res.add(&tl.sum)
		for _, e := range tl.events {
			if e.after > 0 {
				e.Cycle += ends[e.after-1]
			}
			e.Tile = g
			events = append(events, e.TraceEvent)
		}
		merged = mergeSpans(merged[:0], busy, grants)
		busy, merged = merged, busy
	}
	if tr != nil {
		slices.SortStableFunc(events, func(a, b TraceEvent) int { return cmp.Compare(a.Cycle, b.Cycle) })
		for _, e := range events {
			tr.Emit(e)
		}
	}
	return res
}

// mergeSpans appends the union of two ascending, disjoint span lists to dst,
// joining spans that touch.
func mergeSpans(dst, a, b []portSpan) []portSpan {
	for len(a) > 0 || len(b) > 0 {
		var s portSpan
		if len(b) == 0 || len(a) > 0 && a[0].lo < b[0].lo {
			s, a = a[0], a[1:]
		} else {
			s, b = b[0], b[1:]
		}
		if n := len(dst); n > 0 && dst[n-1].hi+1 == s.lo {
			dst[n-1].hi = s.hi
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}

// add folds a tile's load and stream accounting into r.
func (r *CoreSimResult) add(o *CoreSimResult) {
	r.LoadCycles += o.LoadCycles
	r.Stalls += o.Stalls
	r.Products += o.Products
	r.Deliveries += o.Deliveries
	r.Conflicts += o.Conflicts
	r.Stages.Merge(o.Stages)
	r.Counters.Add(o.Counters)
}

// SimulateCore runs one layer through the whole-core simulator and
// extracts the strided output. The numeric result is bit-exact against
// refconv.Conv. The compute tiles run on at most GOMAXPROCS goroutines,
// each owning one TileScratch; results and traces do not depend on how
// many.
func SimulateCore(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig) CoreSimResult {
	cfg = cfg.withDefaults()
	l := newCoreLayer(f, w, cfg)
	tls := make([]tileTimeline, len(l.jobs))
	fanOut(len(l.jobs), func(s *TileScratch, g int) {
		tls[g] = runTile(l.jobs[g], cfg, s, l.occ)
	})
	res := placeDrains(tls, cfg.Trace)
	res.Output = l.streams.output(l.fulls, f, w, stride, pad)
	telemetry.Default.AddStageCycles(res.Stages)
	return res
}
