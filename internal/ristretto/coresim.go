package ristretto

import (
	"fmt"

	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/refconv"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
)

// This file is the whole-core lockstep simulator: all M compute tiles of
// Figure 7 advance in a single global cycle loop, contending for the shared
// output buffer when they drain accumulate banks. Compared with
// SimulateConv (which sums per-intersection cycle counts per tile), the
// core simulator additionally models:
//
//   - the initial static-stream load of each round from the tile's local
//     weight buffer (ping-pong hides subsequent loads, not the first);
//   - the shared output buffer's write port: one tile drains per cycle,
//     others queue (aggregation of "results of different compute tiles",
//     Section IV-C4);
//   - true concurrency, so the reported latency is the cycle the last tile
//     retires — enabling cross-tile traces.
//
// Work and traffic accounting follows one convention shared with the tile
// simulator and the analytic model: stalls count every cycle the chain
// cannot advance on FIFO back-pressure; the input buffer is charged 1 B per
// activation atom as it is fed (so re-read every ping-pong round); the
// weight buffer is charged len(chunk) bytes at every chunk start; a drain
// charges a 4 B accumulate-buffer read plus a 4 B output-buffer write per
// drained entry. On those counters — and on Products/Deliveries/Conflicts —
// SimulateCore agrees exactly with the sum of SimulateIntersection results
// over the same jobs (pinned by the parity suite in simparity_test.go).

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

// CoreSimResult reports a lockstep core simulation.
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
}

type coreTileState int

const (
	tileLoading coreTileState = iota
	tileStreaming
	tileDraining
	tileIdle
)

// coreTile is the per-tile state machine of the lockstep simulation. All
// per-cycle state (chain, FIFOs, accumulate banks, crossbar bitmask) lives
// in the tile's private TileScratch, so stepping allocates nothing.
type coreTile struct {
	cfg        TileConfig
	loadWidth  int
	drainWidth int
	jobs       []tileJob
	job        int
	state      coreTileState

	tc *traceCtx
	s  *TileScratch

	chunks   [][]core.WeightAtom
	chunk    int
	loadLeft int

	drainLeft    int   // cycles of output-port occupancy requested
	drainShift   uint8 // decoupled weight-slice shift of the pending drain
	drainEntries int   // accumulate-bank entries in the pending drain

	occ  *telemetry.Histogram // accumulate-bank occupancy at drain (nil = telemetry off)
	busy int64
}

func newCoreTile(cfg TileConfig, loadWidth, drainWidth int, jobs []tileJob, tc *traceCtx, occ *telemetry.Histogram, res *CoreSimResult) *coreTile {
	t := &coreTile{cfg: cfg, loadWidth: loadWidth, drainWidth: drainWidth, jobs: jobs, s: NewTileScratch(), tc: tc, occ: occ}
	t.nextJob(res)
	return t
}

func (t *coreTile) nextJob(res *CoreSimResult) {
	for t.job < len(t.jobs) {
		j := &t.jobs[t.job]
		if len(j.acts) == 0 || len(j.weights) == 0 {
			t.job++
			continue
		}
		if t.tc.on() {
			t.tc.emit("job_start", t.job, 0, fmt.Sprintf("acts=%d watoms=%d", len(j.acts), len(j.weights)))
		}
		t.chunks = t.s.startJob(j.acts, j.weights, j.tile.W, j.tile.H, j.full, t.cfg)
		t.chunk = 0
		t.startChunk(res)
		return
	}
	t.state = tileIdle
	t.tc.emit("tile_done", t.job, 0, "")
}

func (t *coreTile) startChunk(res *CoreSimResult) {
	chunk := t.chunks[t.chunk]
	t.s.startChunk(chunk)
	if t.tc.on() {
		t.tc.emit("chunk_start", t.job, t.chunk, fmt.Sprintf("m=%d shift=%d", len(chunk), chunk[0].Shift))
	}
	// Static-stream traffic: 1 B per atom every round, the same convention
	// as the tile simulator — the ping-pong registers hide load *latency*
	// beyond the first chunk, not the buffer reads.
	res.Counters.WeightBufBytes += int64(len(chunk))
	// The first chunk of a job loads its static stream explicitly; later
	// chunks are hidden by the ping-pong registers.
	if t.chunk == 0 {
		t.loadLeft = (len(chunk) + t.loadWidth - 1) / t.loadWidth
		t.state = tileLoading
	} else {
		t.state = tileStreaming
	}
}

// step advances the tile one cycle. It returns counters deltas via res.
func (t *coreTile) step(res *CoreSimResult, drainPortFree *bool) {
	if t.state == tileIdle {
		return
	}
	t.busy++
	switch t.state {
	case tileLoading:
		// The stream pipeline waits on the static-stream fill: all three
		// stages idle (the load is accounted separately in LoadCycles).
		res.Stages.Idle[telemetry.StageAtomizer]++
		res.Stages.Idle[telemetry.StageAtomputer]++
		res.Stages.Idle[telemetry.StageAtomulator]++
		t.loadLeft--
		res.LoadCycles++
		if t.loadLeft <= 0 {
			t.state = tileStreaming
		}
	case tileDraining:
		// The accumulate-buffer drain is Atomulator work; the upstream
		// stages have nothing to do until the next chunk starts.
		res.Stages.Idle[telemetry.StageAtomizer]++
		res.Stages.Idle[telemetry.StageAtomputer]++
		if !*drainPortFree {
			res.Stages.Stall[telemetry.StageAtomulator]++
			res.DrainWait++
			return
		}
		res.Stages.Busy[telemetry.StageAtomulator]++
		*drainPortFree = false
		t.drainLeft--
		if t.drainLeft <= 0 {
			if t.tc.on() {
				t.tc.emit("drain_end", t.job, t.chunk, fmt.Sprintf("entries=%d shift=%d", t.drainEntries, t.drainShift))
			}
			// Commit the bank contents with the decoupled shift; traffic is
			// charged per entry (4 B acc read + 4 B output write) inside
			// drainBanks, the shared convention.
			t.s.drainBanks(t.jobs[t.job].full.Data, t.drainShift, &res.Counters)
			t.advanceChunk(res)
		}
	case tileStreaming:
		// One cycle of the chain kernel SimulateIntersection loops.
		if t.s.cycle() {
			t.s.fold(&res.Stalls, &res.Products, &res.Deliveries, &res.Conflicts, &res.Stages, &res.Counters)
			t.chunkDone(res)
		}
	}
}

// advanceChunk moves to the next chunk of the current job, or to the next
// job when the chunk list is exhausted.
func (t *coreTile) advanceChunk(res *CoreSimResult) {
	t.chunk++
	if t.chunk < len(t.chunks) {
		t.startChunk(res)
	} else {
		t.job++
		t.nextJob(res)
	}
}

// chunkDone follows a chunk whose stream has drained through the chain and
// FIFOs: it requests the output port for the bank drain if this is the last
// chunk of its slice, and otherwise moves on.
func (t *coreTile) chunkDone(res *CoreSimResult) {
	s := t.s
	shift := t.chunks[t.chunk][0].Shift
	lastOfSlice := t.chunk == len(t.chunks)-1 || t.chunks[t.chunk+1][0].Shift != shift
	if !lastOfSlice {
		t.advanceChunk(res)
		return
	}
	if t.occ != nil {
		t.occ.Observe(int64(len(s.touched)))
	}
	if len(s.touched) == 0 {
		// Nothing accumulated (fully ineffectual slice): skip the drain
		// state entirely — no output-port request, no phantom cycle, no
		// traffic.
		t.advanceChunk(res)
		return
	}
	t.tc.emit("drain_start", t.job, t.chunk, "")
	t.drainShift = shift
	t.drainEntries = len(s.touched)
	t.drainLeft = (t.drainEntries + t.drainWidth - 1) / t.drainWidth
	t.state = tileDraining
}

// SimulateCore runs one layer through the lockstep core simulator and
// extracts the strided output. The numeric result is bit-exact against
// refconv.Conv.
func SimulateCore(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig) CoreSimResult {
	cfg = cfg.withDefaults()
	tw, th := cfg.TileW, cfg.TileH
	if tw == 0 {
		tw = f.W
	}
	if th == 0 {
		th = f.H
	}
	tiles := tensor.TileGrid(f.W, f.H, tw, th)

	// Offline: streams and balancing.
	wstreams := make([][]core.WeightAtom, f.C)
	costs := make([]int64, f.C)
	watoms := make([]int, f.C)
	for c := 0; c < f.C; c++ {
		wstreams[c] = core.CompressWeights(core.FlattenKernels(w, c, nil), w.Bits, cfg.Tile.Gran, false)
		watoms[c] = len(wstreams[c])
	}
	actStreams := make([][]core.ActAtom, f.C*len(tiles)) // [c*len(tiles)+ti]
	tatoms := make([]int, f.C)
	for c := 0; c < f.C; c++ {
		for ti, tl := range tiles {
			acts := core.StreamTileActs(f, c, tl, cfg.Tile.Gran)
			actStreams[c*len(tiles)+ti] = acts
			tatoms[c] += len(acts)
		}
		costs[c] = balance.Cost(tatoms[c], watoms[c], cfg.Tile.Mults)
	}
	groups := balance.Assign(cfg.Policy, costs, watoms, cfg.Tiles)

	// Per-tile job lists. Jobs on the same spatial tile share one
	// full-convolution buffer: int32 adds commute, so the order in which
	// tiles drain into it cannot change the overlap-added output.
	var occHist *telemetry.Histogram
	if telemetry.Default.Enabled() {
		occHist = telemetry.Default.Histogram("ristretto.accbuf.occupancy_entries")
		var actAtoms, wAtoms int64
		for c := 0; c < f.C; c++ {
			actAtoms += int64(tatoms[c])
			wAtoms += int64(watoms[c])
		}
		telemetry.Default.Counter("ristretto.stream.act_atoms").Add(actAtoms)
		telemetry.Default.Counter("ristretto.stream.weight_atoms").Add(wAtoms)
	}
	fulls := make([]*tensor.OutputMap, len(tiles))
	for ti, tl := range tiles {
		fulls[ti] = tensor.NewOutputMap(w.K, tl.H+w.KH-1, tl.W+w.KW-1)
	}
	res := CoreSimResult{TileBusy: make([]int64, cfg.Tiles)}
	cts := make([]*coreTile, cfg.Tiles)
	for g, chans := range groups {
		jobs := make([]tileJob, 0, len(chans)*len(tiles))
		for _, c := range chans {
			for ti, tl := range tiles {
				jobs = append(jobs, tileJob{acts: actStreams[c*len(tiles)+ti], weights: wstreams[c], tile: tl, full: fulls[ti]})
			}
		}
		tc := &traceCtx{tracer: cfg.Trace, cycle: &res.Cycles, tile: g}
		cts[g] = newCoreTile(cfg.Tile, cfg.LoadWidth, cfg.DrainWidth, jobs, tc, occHist, &res)
	}

	// Global cycle loop.
	for {
		allIdle := true
		for _, ct := range cts {
			if ct.state != tileIdle {
				allIdle = false
				break
			}
		}
		if allIdle {
			break
		}
		res.Cycles++
		drainPortFree := true
		for g, ct := range cts {
			before := ct.busy
			ct.step(&res, &drainPortFree)
			res.TileBusy[g] += ct.busy - before
		}
	}

	global := tensor.NewOutputMap(w.K, tensor.FullConvSize(f.H, w.KH), tensor.FullConvSize(f.W, w.KW))
	for ti, tl := range tiles {
		refconv.AddTileFull(global, fulls[ti], tl)
	}
	res.Output = refconv.ExtractStrided(global, f.H, f.W, w.KH, w.KW, stride, pad)
	telemetry.Default.AddStageCycles(res.Stages)
	return res
}
