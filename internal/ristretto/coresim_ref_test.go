package ristretto

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// This file is the test oracle for SimulateCore's two-step schedule: the
// lockstep simulator it replaced, in which one global loop steps every
// compute tile's state machine once per cycle and the port goes to the
// first draining tile in index order. Each tile steps the chain kernel's
// cycle loop for every chunk, but keeps its own reference banks: a slice's
// drain takes its entries from the products of the slice's weight atoms
// with the job's Last atoms, checks the kernel's entry count and its
// pre-shifted banks against them, and shifts them into the accumulator
// itself, so the oracle's output never reads the kernel's banks.

// tileJob is one (input channel, spatial tile) intersection assigned to a
// compute tile.
type tileJob struct {
	acts    []core.ActAtom
	weights []core.WeightAtom
	tile    tensor.Tile
	full    *tensor.OutputMap // the spatial tile's full-convolution accumulator, shared by its jobs
}

// lockstepLayer is the oracle's offline step: the layer's spatial tiles,
// its streams balanced onto the compute tiles as per-tile job lists,
// channel-major, and each spatial tile's accumulator.
func lockstepLayer(f *tensor.FeatureMap, w *tensor.KernelStack, cfg CoreSimConfig) (tiles []tensor.Tile, jobs [][]tileJob, fulls []*tensor.OutputMap) {
	tiles = tileGrid(f, cfg.TileW, cfg.TileH)
	fulls = accumulators(tiles, w)
	weights := make([][]core.WeightAtom, f.C)
	acts := make([][]core.ActAtom, f.C*len(tiles)) // [c*len(tiles)+ti]
	costs, watoms := make([]int64, f.C), make([]int, f.C)
	var streamer core.WeightStreamer
	for c := range f.C {
		weights[c] = streamer.AppendStream(nil, w, c, cfg.Tile.Gran, false)
		watoms[c] = len(weights[c])
		actAtoms := 0
		for ti, tl := range tiles {
			acts[c*len(tiles)+ti] = core.StreamTileActs(f, c, tl, cfg.Tile.Gran)
			actAtoms += len(acts[c*len(tiles)+ti])
		}
		costs[c] = balance.Cost(actAtoms, watoms[c], cfg.Tile.Mults)
	}
	for _, chans := range balance.Assign(cfg.Policy, costs, watoms, cfg.Tiles) {
		var js []tileJob
		for _, c := range chans {
			for ti, tl := range tiles {
				js = append(js, tileJob{acts: acts[c*len(tiles)+ti], weights: weights[c], tile: tl, full: fulls[ti]})
			}
		}
		jobs = append(jobs, js)
	}
	return tiles, jobs, fulls
}

// traceCtx stamps a lockstep tile's events with the global cycle.
type traceCtx struct {
	tracer Tracer
	cycle  *int64
	tile   int
}

// on reports whether events are recorded; callers check it before
// formatting an event's detail.
func (c *traceCtx) on() bool { return c != nil && c.tracer != nil }

func (c *traceCtx) emit(event string, job, chunk int, detail string) {
	if !c.on() {
		return
	}
	c.tracer.Emit(TraceEvent{Cycle: *c.cycle, Tile: c.tile, Event: event, Job: job, Chunk: chunk, Detail: detail})
}

type coreTileState int

const (
	tileLoading coreTileState = iota
	tileStreaming
	tileDraining
	tileIdle
)

// coreTile is the per-tile state machine of the lockstep simulation.
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

	slice int             // the current slice's first chunk
	ref   map[int32]int32 // the job's reference banks, slice shifts applied
	err   error           // the first disagreement with the kernel's banks

	busy int64
}

func newCoreTile(cfg TileConfig, loadWidth, drainWidth int, jobs []tileJob, tc *traceCtx, res *CoreSimResult) *coreTile {
	t := &coreTile{cfg: cfg, loadWidth: loadWidth, drainWidth: drainWidth, jobs: jobs, s: NewTileScratch(), tc: tc, ref: map[int32]int32{}}
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
		t.chunk, t.slice = 0, 0
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
	res.Counters.WeightBufBytes += int64(len(chunk))
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
		res.Stages.Idle[telemetry.StageAtomizer]++
		res.Stages.Idle[telemetry.StageAtomputer]++
		res.Stages.Idle[telemetry.StageAtomulator]++
		t.loadLeft--
		res.LoadCycles++
		if t.loadLeft <= 0 {
			t.state = tileStreaming
		}
	case tileDraining:
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
			res.Counters.AccBufBytes += 4 * int64(t.drainEntries)
			res.Counters.OutputBufBytes += 4 * int64(t.drainEntries)
			t.advanceChunk(res)
		}
	case tileStreaming:
		if t.s.cycle() {
			t.s.fold(res)
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
		t.endJob()
		t.job++
		t.nextJob(res)
	}
}

// sliceEntries returns the reference banks of the current job's slice of
// chunks [t.slice, t.chunk]: each distinct accumulate-bank entry the
// slice's products write, with their unshifted sum, products outside the
// buffer dropped.
func (t *coreTile) sliceEntries() map[int32]int32 {
	j := &t.jobs[t.job]
	kh, kw := j.full.H-j.tile.H+1, j.full.W-j.tile.W+1
	entries := map[int32]int32{}
	for _, chunk := range t.chunks[t.slice : t.chunk+1] {
		for _, w := range chunk {
			var sum int32
			for _, a := range j.acts {
				sum += int32(a.Mag) << a.Shift
				if !a.Last {
					continue
				}
				v := int32(w.Mag) * sum
				if w.Sign {
					v = -v
				}
				sum = 0
				xo, yo := core.OutCoord(int(w.X), int(w.Y), int(a.X), int(a.Y), kh, kw)
				if xo >= 0 && xo < j.full.W && yo >= 0 && yo < j.full.H {
					entries[int32(int(w.K)*j.full.H*j.full.W+core.OutAddr(xo, yo, j.tile.W, kw))] += v
				}
			}
		}
	}
	return entries
}

// drainSlice ends the current slice: it checks the kernel's drain count and
// pre-shifted banks against the slice's reference entries, adds them to the
// job's reference banks with the slice shift, and returns their count.
func (t *coreTile) drainSlice(shift uint8) int {
	entries := t.sliceEntries()
	var kernel energy.Counters
	if n := t.s.drainBanks(&kernel); n != len(entries) {
		t.fail("drains %d entries, reference %d", n, len(entries))
	}
	for idx, v := range entries {
		t.ref[idx] += v << shift
		if got := t.s.bank[idx]; got != t.ref[idx] {
			t.fail("bank[%d] = %d, reference %d", idx, got, t.ref[idx])
		}
	}
	t.slice = t.chunk + 1
	return len(entries)
}

// endJob flushes the kernel's banks, checks them against the job's
// reference banks and adds the reference banks to the spatial tile's
// accumulator.
func (t *coreTile) endJob() {
	full := t.jobs[t.job].full
	flushed := make([]int32, len(full.Data))
	t.s.flush(flushed)
	for idx, v := range flushed {
		if want := t.ref[int32(idx)]; v != want {
			t.fail("flushed bank[%d] = %d, reference %d", idx, v, want)
		}
	}
	for idx, v := range t.ref {
		full.Data[idx] += v
	}
	clear(t.ref)
}

// fail records the first disagreement between the kernel's banks and the
// reference.
func (t *coreTile) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("job %d chunk %d: "+format, append([]any{t.job, t.chunk}, args...)...)
	}
}

// chunkDone follows a chunk whose stream has drained through the chain and
// FIFOs: it requests the output port for the bank drain if this is the last
// chunk of its slice, and otherwise moves on.
func (t *coreTile) chunkDone(res *CoreSimResult) {
	shift := t.chunks[t.chunk][0].Shift
	lastOfSlice := t.chunk == len(t.chunks)-1 || t.chunks[t.chunk+1][0].Shift != shift
	if !lastOfSlice {
		t.advanceChunk(res)
		return
	}
	entries := t.drainSlice(shift)
	if entries == 0 {
		t.advanceChunk(res)
		return
	}
	t.tc.emit("drain_start", t.job, t.chunk, "")
	t.drainShift = shift
	t.drainEntries = entries
	t.drainLeft = (t.drainEntries + t.drainWidth - 1) / t.drainWidth
	t.state = tileDraining
}

// lockstepTiles runs per-tile job lists through the global cycle loop: each
// cycle steps tiles 0..M-1 in order with the output port free at the start.
// The error reports the first tile whose kernel banks disagreed with its
// reference banks.
func lockstepTiles(jobs [][]tileJob, cfg CoreSimConfig) (CoreSimResult, error) {
	res := CoreSimResult{TileBusy: make([]int64, len(jobs))}
	cts := make([]*coreTile, len(jobs))
	for g := range jobs {
		tc := &traceCtx{tracer: cfg.Trace, cycle: &res.Cycles, tile: g}
		cts[g] = newCoreTile(cfg.Tile, cfg.LoadWidth, cfg.DrainWidth, jobs[g], tc, &res)
	}
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
	for g, ct := range cts {
		if ct.err != nil {
			return res, fmt.Errorf("compute tile %d %w", g, ct.err)
		}
	}
	return res, nil
}

// simulateCoreLockstep is SimulateCore on the lockstep oracle: the stream
// build, balancing and output assembly around lockstepTiles.
func simulateCoreLockstep(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig) (CoreSimResult, error) {
	cfg = cfg.withDefaults()
	tiles, jobs, fulls := lockstepLayer(f, w, cfg)
	res, err := lockstepTiles(jobs, cfg)
	res.Output = assemble(tiles, fulls, f, w, stride, pad)
	return res, err
}

// coreCase is one layer and core shape for the schedule check.
type coreCase struct {
	f           *tensor.FeatureMap
	w           *tensor.KernelStack
	stride, pad int
	cfg         CoreSimConfig
}

// decodeCoreCase turns fuzzer bytes into a small layer on a contended core
// shape: 1–12 compute tiles, DrainWidth and LoadWidth 1–4, FIFO depth 1–8,
// 1–64 multipliers, 1–3-bit atoms, every balancing policy, optional
// spatial tiling, 1×1 or 3×3 kernels and stride 1–2. Missing bytes read as
// zero; seed draws the operand values.
func decodeCoreCase(seed int64, shape []byte) coreCase {
	b := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return 0
	}
	gran := atom.Granularity(1 + b(0)%3)
	cfg := CoreSimConfig{
		Tiles:      1 + b(1)%12,
		Tile:       TileConfig{Mults: 1 + b(2)%64, Gran: gran, FIFODepth: 1 + b(3)%8},
		LoadWidth:  1 + b(4)%4,
		DrainWidth: 1 + b(4)/4%4,
		Policy:     balance.Policy(b(4) / 16 % 3),
	}
	c, h, w, k := 1+b(5)%8, 1+b(6)%9, 1+b(7)%9, 1+b(8)%8
	ks := 1 + 2*(b(9)%2)
	stride, pad := 1+b(9)/2%2, b(9)/4%2*(ks/2)
	if b(10)%2 == 1 {
		cfg.TileW, cfg.TileH = 1+b(11)%w, 1+b(12)%h
	}
	bits := []int{2, 4, 8}[b(13)%3]
	density := func(x int) float64 { return 0.1 + 0.9*float64(x)/255 }
	g := workload.NewGen(seed)
	return coreCase{
		f:      g.FeatureMapExact(c, h, w, bits, gran, density(b(14)), density(b(15))),
		w:      g.KernelsExact(k, c, ks, ks, bits, gran, density(b(16)), density(b(17))),
		stride: stride, pad: pad, cfg: cfg,
	}
}

// checkCoreSchedule runs a case through SimulateCore and the lockstep
// oracle and requires every CoreSimResult field, the output and the trace
// events to match. It reports whether any tile waited for the port.
func checkCoreSchedule(t *testing.T, tc coreCase) bool {
	t.Helper()
	var got, want MemoryTracer
	cfg := tc.cfg
	cfg.Trace = &want
	ref, err := simulateCoreLockstep(tc.f, tc.w, tc.stride, tc.pad, cfg)
	if err != nil {
		t.Fatalf("%+v: %v", tc.cfg, err)
	}
	cfg.Trace = &got
	res := SimulateCore(tc.f, tc.w, tc.stride, tc.pad, cfg)
	if !res.Output.Equal(ref.Output) {
		t.Fatalf("%+v: output differs from the lockstep oracle (max diff %d)", tc.cfg, res.Output.MaxAbsDiff(ref.Output))
	}
	res.Output, ref.Output = nil, nil
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("%+v:\nresult %+v\noracle %+v", tc.cfg, res, ref)
	}
	if !slices.Equal(got.Events, want.Events) {
		for i := range min(len(got.Events), len(want.Events)) {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("%+v: trace event %d is %+v, oracle %+v", tc.cfg, i, got.Events[i], want.Events[i])
			}
		}
		t.Fatalf("%+v: %d trace events, oracle %d", tc.cfg, len(got.Events), len(want.Events))
	}
	return ref.DrainWait > 0
}

// FuzzCoreSchedule checks SimulateCore's two-step schedule — tiles run
// apart, drains placed on the port afterwards — against the lockstep loop
// it replaced, on fuzzer-chosen layers and contended core shapes.
func FuzzCoreSchedule(f *testing.F) {
	f.Add(int64(1), []byte{1, 7, 7, 3, 0, 5, 6, 6, 3, 1, 0, 0, 0, 2, 200, 200, 200, 200})
	f.Add(int64(2), []byte{1, 11, 31, 0, 0, 7, 8, 8, 7, 1, 1, 3, 2, 2, 255, 128, 255, 128})
	f.Add(int64(3), []byte{0, 3, 0, 7, 15, 2, 4, 5, 1, 3, 0, 0, 0, 0, 60, 60, 60, 60})
	f.Add(int64(4), []byte{2, 5, 63, 1, 37, 4, 8, 3, 5, 6, 1, 1, 1, 1, 100, 255, 30, 255})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		checkCoreSchedule(t, decodeCoreCase(seed, shape))
	})
}

// TestCoreScheduleMatchesLockstep is FuzzCoreSchedule's check over seeded
// random cases, most of them with tiles waiting on the port.
func TestCoreScheduleMatchesLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const cases = 400
	waited := 0
	shape := make([]byte, 18)
	for i := range cases {
		rng.Read(shape)
		if checkCoreSchedule(t, decodeCoreCase(int64(i), shape)) {
			waited++
		}
	}
	t.Logf("%d of %d cases waited on the output port", waited, cases)
	if waited < cases/2 {
		t.Fatalf("only %d of %d cases waited on the output port: the check barely exercises contention", waited, cases)
	}
}

// TestTailCarryMatchesLockstep covers what layers drawn from kernel stacks
// never produce: a channel whose last slices drain nothing, so that it
// ends on a tail of free cycles which the next channel on the same compute
// tile carries into its first drain. Weights beyond a 1×1 window push
// every product out of the accumulator, so a slice of them drains nothing.
// The channels, one job each, run through the per-channel pass and Run,
// and through the lockstep oracle on the same job lists: every result
// field and trace event must match, on one compute tile and on two.
func TestTailCarryMatchesLockstep(t *testing.T) {
	acts := []core.ActAtom{{Mag: 1, Last: true, X: 0, Y: 0}, {Mag: 3, Last: true, X: 1, Y: 0}}
	in := func(k uint16) core.WeightAtom { return core.WeightAtom{Mag: 1, K: k} }
	out := func(shift uint8) core.WeightAtom { return core.WeightAtom{Mag: 1, Shift: shift, X: 7, Y: 7} }
	channels := [][]core.WeightAtom{
		{out(0), out(0), out(2)},        // no drain: all tail
		{in(0), in(1), in(0)},           // drains
		{in(1), out(2), out(2), out(2)}, // a drain, then a tail
		{out(2)},                        // no drain
		{in(0), in(0), out(2), in(1)},   // drains, split over two chunks
	}
	tile := tensor.Tile{W: 2, H: 1}
	cfg := CoreSimConfig{Tile: TileConfig{Mults: 2, Gran: 2, FIFODepth: 1}, LoadWidth: 1, DrainWidth: 1}.withDefaults()
	for _, tiles := range []int{1, 2} {
		var got, want MemoryTracer
		cfg.Tiles, cfg.Trace = tiles, &got
		p := newCorePass(cfg, len(channels), 1)
		s, full := NewTileScratch(), tensor.NewOutputMap(2, 1, 2)
		for c, weights := range channels {
			var tl timeline
			var sum CoreSimResult
			s.job(&tl, &sum, &cfg, nil, 0, tile, full, nil, acts, weights)
			p.finish(c, tl, &sum, len(acts), len(weights))
		}
		s.release()
		res := p.l.Run(tiles, balance.None)

		cfg.Trace = &want
		var jobs [][]tileJob
		for _, chans := range balance.Assign(balance.None, p.l.costs, p.l.watoms, tiles) {
			var js []tileJob
			for _, c := range chans {
				js = append(js, tileJob{acts: acts, weights: channels[c], tile: tile, full: tensor.NewOutputMap(2, 1, 2)})
			}
			jobs = append(jobs, js)
		}
		ref, err := lockstepTiles(jobs, cfg)
		if err != nil {
			t.Fatalf("%d tiles: %v", tiles, err)
		}
		res.Output = nil
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%d tiles:\nresult %+v\noracle %+v", tiles, res, ref)
		}
		if !slices.Equal(got.Events, want.Events) {
			t.Fatalf("%d tiles: trace\n%+v\noracle\n%+v", tiles, got.Events, want.Events)
		}
	}
}
