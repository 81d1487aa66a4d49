package ristretto

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
)

// This file is the per-channel pass every cycle simulator runs, and the
// whole-core timing on top of it. A compute tile of Figure 7 does the same
// work on an (input channel, spatial tile) job whichever view times it, so
// one pass builds each input channel's streams from the tensors, runs its
// jobs through the chain kernel and flushes their banks into the layer's
// accumulators. The modelled hardware still drains its banks at the end of
// every weight slice and applies the slice's shift at aggregation; the
// host adds each product already shifted, an identity modulo 2^32, counts
// a drain's entries without moving them and flushes a worker's banks only
// when it moves to another spatial tile and once after its last channel
// (see TileScratch). The two views differ only in what they charge on top:
//
//   - the tile view (SimulateConv, SimulateIntersectionScratch) sums each
//     compute tile's job cycles with ping-pong overlap: every chunk of a
//     job but the last costs the cycles until its last activation atom
//     entered the chain, the last one its full cycles;
//   - the whole-core view (SimulateCore) runs all M compute tiles
//     concurrently and also charges the initial static-stream load of each
//     job from the tile's local weight buffer (ping-pong hides later loads,
//     not the first) and the shared output buffer's write port: one tile
//     drains per cycle, others queue (aggregation of "results of different
//     compute tiles", Section IV-C4). Its latency is the cycle the last
//     tile retires, which enables cross-tile traces.
//
// w/a balancing (Eq. 5) assigns whole input channels to compute tiles, and
// a compute tile runs its channels' jobs back to back, so what a channel's
// jobs do in the chain kernel does not depend on which tile runs them or
// on how many tiles there are. A simulation therefore runs in two steps.
// The per-channel pass (prepare) runs the channels in parallel and records
// for each an untimed timeline: the load and stream cycles between its
// drains, the port cycles each drain needs and the tile view's cycles.
// The per-shape step balances the channels onto the compute tiles: the
// tile view sums each tile's cycles (SimulateConv); the whole-core view
// (Run) joins each tile's channel timelines in job order and places the
// drains on the port. The tiles share only the port (and the spatial
// tiles' accumulators, whose int32 adds commute). The port serves the
// lowest-numbered draining tile each cycle, so tile g is blocked on
// exactly the cycles tiles 0..g-1 hold it; timing the tiles in index order
// against the union of the earlier tiles' port spans reproduces, cycle for
// cycle, a global loop that steps every tile each cycle (FuzzCoreSchedule
// checks it against that loop, kept as a test oracle).
//
// Work and traffic accounting is therefore one convention, shared with the
// analytic model: stalls count every cycle the chain cannot advance on
// FIFO back-pressure; the input buffer is charged 1 B per activation atom
// as it is fed (so re-read every ping-pong round); the weight buffer is
// charged len(chunk) bytes at every chunk start; a drain charges a 4 B
// accumulate-buffer read plus a 4 B output-buffer write per drained entry.
// On those counters, and on Products/Deliveries/Conflicts, SimulateCore
// and SimulateConv agree exactly (pinned by the parity suite in
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

// CoreLayer is one layer after the per-channel pass (PrepareCore): every
// input channel's jobs run through the chain kernel, and what Run needs to
// time them on any number of compute tiles under any balancing policy. It
// holds each channel's untimed timeline, balancing cost and weight-atom
// count, the layer's load and stream accounting summed over the channels,
// and the output map. Run only reads it, so concurrent Runs may share one.
type CoreLayer struct {
	chans  []timeline        // [c]: input channel c's untimed timeline
	costs  []int64           // [c]: channel c's balancing cost (Eq. 5)
	watoms []int             // [c]: channel c's weight atoms
	jobs   int               // jobs per channel: one per spatial tile
	sum    CoreSimResult     // LoadCycles, Stalls, the work counts, the streams' stage cycles and the counters
	output *tensor.OutputMap // the strided, padded convolution output
	trace  Tracer            // where Run sends the trace events, when the pass recorded them
}

// drainReq is one accumulate-bank drain of an untimed timeline.
type drainReq struct {
	// free counts the load and stream cycles since the previous drain
	// ended (or the channel started), through the slice's last stream
	// cycle.
	free int64
	port int64 // output-port cycles the drain occupies: ⌈entries / DrainWidth⌉
}

// tileEvent is a trace event of an untimed timeline. Its Cycle counts the
// free cycles since drain after-1 ended, or since the channel started when
// after is 0; its Job is the channel's spatial tile.
type tileEvent struct {
	TraceEvent
	after int // drains finished before the event
}

// timeline is what the per-channel pass records for one input channel.
type timeline struct {
	drains []drainReq
	tail   int64       // free cycles after the last drain (or since the start), through the channel's last stream cycle
	cycles int64       // the tile view's cycles over the channel's jobs
	events []tileEvent // nil unless tracing
}

// emit records a trace event at the timeline's current free cycle.
func (tl *timeline) emit(event string, job, chunk int, detail string) {
	tl.events = append(tl.events, tileEvent{TraceEvent{Cycle: tl.tail, Event: event, Job: job, Chunk: chunk, Detail: detail}, len(tl.drains)})
}

// corePass is the per-channel pass's configuration and the layer it
// gathers the channels into.
type corePass struct {
	cfg CoreSimConfig
	l   *CoreLayer

	mu                    sync.Mutex // guards l.sum and the atom totals
	actAtoms, weightAtoms int64      // the layer's stream atoms
}

func newCorePass(cfg CoreSimConfig, channels, jobs int) *corePass {
	return &corePass{
		cfg: cfg,
		l: &CoreLayer{chans: make([]timeline, channels), costs: make([]int64, channels),
			watoms: make([]int, channels), jobs: jobs, trace: cfg.Trace},
	}
}

// job runs one job, acts against weights on spatial tile ti, through the
// chain kernel chunk by chunk on scratch s. Each slice's drain asks the
// output port for ⌈entries / DrainWidth⌉ cycles, its entries counted by
// drainBanks. The job's pre-shifted sums stay in the banks, which then
// hold sums for the spatial tile's accumulator full: a scratch that holds
// another accumulator's first flushes into it, and the caller releases the
// scratch after its last job. mu guards full against the other
// goroutines' flushes, nil when none flushes into it. The job is appended
// to its channel's timeline tl and accounting sum. The stage cycles in sum
// leave out the job's first static-stream load, which only the whole-core
// view charges (Run). occ, when not nil, observes each slice's accumulate-bank
// occupancy; trace events are recorded when cfg.Trace is set.
func (s *TileScratch) job(tl *timeline, sum *CoreSimResult, cfg *CoreSimConfig, occ *telemetry.Histogram, ti int, tile tensor.Tile, full *tensor.OutputMap, mu *sync.Mutex, acts []core.ActAtom, weights []core.WeightAtom) {
	if len(acts) == 0 || len(weights) == 0 {
		return
	}
	if s.held != full {
		s.release()
		s.held, s.heldMu = full, mu
	}
	trace := cfg.Trace != nil
	if trace {
		tl.emit("job_start", ti, 0, fmt.Sprintf("acts=%d watoms=%d", len(acts), len(weights)))
	}
	chunks := s.startJob(acts, weights, tile.W, tile.H, full, cfg.Tile)
	for ci, chunk := range chunks {
		if trace {
			tl.emit("chunk_start", ti, ci, fmt.Sprintf("m=%d shift=%d", len(chunk), chunk[0].Shift))
		}
		// Static-stream traffic: 1 B per atom every round — the ping-pong
		// registers hide load *latency* beyond the first chunk, not the
		// buffer reads.
		sum.Counters.WeightBufBytes += int64(len(chunk))
		if ci == 0 {
			// The first chunk of a job loads its static stream explicitly,
			// and the stream pipeline waits on the fill.
			load := int64((len(chunk) + cfg.LoadWidth - 1) / cfg.LoadWidth)
			sum.LoadCycles += load
			tl.tail += load
		}
		s.runChunk(chunk)
		s.fold(sum)
		tl.tail += s.tally.Cycles
		// Ping-pong overlap in the tile view: every chunk but the job's
		// last hides its drain under the next chunk's fill.
		if ci+1 < len(chunks) {
			tl.cycles += s.entered
		} else {
			tl.cycles += s.tally.Cycles
		}

		// The banks drain through the output port at the end of a slice.
		shift := chunk[0].Shift
		if ci+1 < len(chunks) && chunks[ci+1][0].Shift == shift {
			continue
		}
		entries := s.drainBanks(&sum.Counters)
		if occ != nil {
			occ.Observe(int64(entries))
		}
		if entries == 0 {
			// Nothing accumulated (fully ineffectual slice): no output-port
			// request, no phantom cycle, no traffic.
			continue
		}
		if trace {
			tl.emit("drain_start", ti, ci, "")
		}
		tl.drains = append(tl.drains, drainReq{free: tl.tail, port: int64((entries + cfg.DrainWidth - 1) / cfg.DrainWidth)})
		tl.tail = 0
		if trace {
			tl.emit("drain_end", ti, ci, fmt.Sprintf("entries=%d shift=%d", entries, shift))
		}
	}
}

// finish stores channel c's timeline, balancing statistics and accounting
// in the layer.
func (p *corePass) finish(c int, tl timeline, sum *CoreSimResult, actAtoms, weightAtoms int) {
	l := p.l
	l.chans[c] = tl
	l.costs[c] = balance.Cost(actAtoms, weightAtoms, p.cfg.Tile.Mults)
	l.watoms[c] = weightAtoms
	p.mu.Lock()
	l.sum.add(sum)
	p.actAtoms += int64(actAtoms)
	p.weightAtoms += int64(weightAtoms)
	p.mu.Unlock()
}

// occupancy returns the accumulate-bank occupancy histogram, or nil when
// telemetry is off.
func occupancy() *telemetry.Histogram {
	if !telemetry.Default.Enabled() {
		return nil
	}
	return telemetry.Default.Histogram("ristretto.accbuf.occupancy_entries")
}

// The atoms' fields bound the layers the pass takes: activation atoms
// carry 8-bit tile coordinates, weight atoms 8-bit kernel coordinates and
// a 16-bit output channel. Past them a coordinate would wrap and the
// output would be wrong.
const (
	maxAtomCoord = 1 << 8
	maxAtomChans = 1 << 16
)

// PrepareCore is the whole-core simulator's per-channel pass (see
// prepare). It reads every field of cfg except Tiles and Policy; Run then
// times the layer on any core shape.
func PrepareCore(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig) *CoreLayer {
	return prepare(f, w, stride, pad, cfg, false)
}

// prepare is the per-channel pass, the one place that builds streams from
// tensors. Fanned out over the input channels, it builds each channel's
// weight stream and its activation streams on the spatial tiles, keeping
// zero values and zero atoms when dense is set (Ristretto-ns), runs the
// channel's jobs through the chain kernel and records their untimed
// timeline, with the trace events when cfg.Trace is set. Each worker's
// banks accumulate the layer's output, flushed into a spatial tile's
// accumulator when the worker moves to another tile and once after its
// last channel; int32 adds commute, so the order of the flushes cannot
// change the output. It panics when a spatial tile, the
// kernel window or the output channels exceed what the atoms' fields hold.
func prepare(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig, dense bool) *CoreLayer {
	cfg = cfg.withDefaults()
	tiles := tileGrid(f, cfg.TileW, cfg.TileH)
	// The first spatial tile is the largest.
	if len(tiles) > 0 && max(tiles[0].W, tiles[0].H) > maxAtomCoord {
		panic(fmt.Sprintf("ristretto: %dx%d spatial tiles exceed the atoms' %dx%d coordinates: set TileW and TileH to at most %d",
			tiles[0].W, tiles[0].H, maxAtomCoord, maxAtomCoord, maxAtomCoord))
	}
	if max(w.KW, w.KH) > maxAtomCoord || w.K > maxAtomChans {
		panic(fmt.Sprintf("ristretto: %d output channels of %dx%d kernels exceed the weight atoms' %d channels of at most %dx%d",
			w.K, w.KW, w.KH, maxAtomChans, maxAtomCoord, maxAtomCoord))
	}
	fulls := accumulators(tiles, w)
	mus := make([]sync.Mutex, len(tiles)) // [ti]: guards fulls[ti] against the other workers' flushes
	occ := occupancy()
	p := newCorePass(cfg, f.C, len(tiles))
	fanOut(f.C, func(s *TileScratch, c int) {
		// The streams and drains are built in the scratch's buffers; only
		// the drains outlive the channel, copied to their exact size.
		s.weights = s.streamer.AppendStream(s.weights[:0], w, c, cfg.Tile.Gran, dense)
		tl := timeline{drains: s.drains[:0]}
		var sum CoreSimResult
		actAtoms := 0
		for ti, tile := range tiles {
			if dense {
				s.acts = core.CompressActs(core.FlattenTileDense(f, c, tile), f.Bits, cfg.Tile.Gran, true)
			} else {
				s.acts = core.AppendTileActs(s.acts[:0], f, c, tile, cfg.Tile.Gran)
			}
			actAtoms += len(s.acts)
			s.job(&tl, &sum, &p.cfg, occ, ti, tile, fulls[ti], &mus[ti], s.acts, s.weights)
		}
		s.drains, tl.drains = tl.drains, slices.Clone(tl.drains)
		p.finish(c, tl, &sum, actAtoms, len(s.weights))
	})
	if occ != nil {
		telemetry.Default.Counter("ristretto.stream.act_atoms").Add(p.actAtoms)
		telemetry.Default.Counter("ristretto.stream.weight_atoms").Add(p.weightAtoms)
	}
	p.l.output = assemble(tiles, fulls, f, w, stride, pad)
	return p.l
}

// Run times the layer on a core of tiles compute tiles under policy: it
// balances the input channels onto the compute tiles, joins each tile's
// channel timelines in job order (channel-major, the channels in group
// order) and places the drains on the output port. The result's Output is
// the layer's own, shared by every Run, and a layer prepared with a
// Tracer sends every Run's events to it. tiles must be at least 1.
func (l *CoreLayer) Run(tiles int, policy balance.Policy) CoreSimResult {
	groups := balance.Assign(policy, l.costs, l.watoms, tiles)
	res := l.placeDrains(groups)
	res.add(&l.sum)
	// The stream pipeline waits on each job's first static-stream load:
	// all three stages idle.
	for st := range res.Stages.Idle {
		res.Stages.Idle[st] += l.sum.LoadCycles
	}
	res.Output = l.output
	telemetry.Default.AddStageCycles(res.Stages)
	return res
}

// portSpan is a run of cycles, lo through hi, in which the output port
// serves one tile.
type portSpan struct{ lo, hi int64 }

// placeDrains times every compute tile's drains on the output port, tiles
// in index order, a tile's channels in group order. busy is the union of
// the port spans granted to the tiles placed so far; a drain asks for the
// port from the cycle after its slice's last stream cycle and takes the
// first free cycles it finds, waiting through busy ones. A channel's tail
// carries into the next channel's first drain. The trace events, stamped
// from the placed timelines with the compute tile's job indices, go to the
// layer's tracer in (cycle, tile) order.
func (l *CoreLayer) placeDrains(groups [][]int) CoreSimResult {
	res := CoreSimResult{TileBusy: make([]int64, len(groups))}
	var busy, grants, merged []portSpan
	var ends []int64 // the cycle each drain of the current tile ends
	var events []TraceEvent
	for g, chans := range groups {
		grants, ends = grants[:0], ends[:0]
		t, k := int64(0), 0
		carry := int64(0) // free cycles since the tile's last drain ended (or it started)
		for pos, ci := range chans {
			ch := &l.chans[ci]
			t0, carry0, base := t, carry, len(ends)
			for i, d := range ch.drains {
				req := t + d.free + 1
				if i == 0 {
					req += carry
				}
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
				// Draining, the upstream stages idle; the Atomulator is busy
				// on the port and stalled while it waits for it.
				wait := t - req + 1 - d.port
				res.DrainWait += wait
				res.Stages.Idle[telemetry.StageAtomizer] += d.port + wait
				res.Stages.Idle[telemetry.StageAtomputer] += d.port + wait
				res.Stages.Busy[telemetry.StageAtomulator] += d.port
				res.Stages.Stall[telemetry.StageAtomulator] += wait
			}
			if len(ch.drains) > 0 {
				carry = ch.tail
			} else {
				carry += ch.tail
			}
			if l.trace == nil {
				continue
			}
			for _, e := range ch.events {
				if e.after > 0 {
					e.Cycle += ends[base+e.after-1]
				} else {
					e.Cycle += t0 + carry0
				}
				e.Tile, e.Job = g, e.Job+pos*l.jobs
				events = append(events, e.TraceEvent)
			}
		}
		res.TileBusy[g] = t + carry
		res.Cycles = max(res.Cycles, res.TileBusy[g])
		if l.trace != nil {
			events = append(events, TraceEvent{Cycle: t + carry, Tile: g, Event: "tile_done", Job: len(chans) * l.jobs})
		}
		merged = mergeSpans(merged[:0], busy, grants)
		busy, merged = merged, busy
	}
	if l.trace != nil {
		slices.SortStableFunc(events, func(a, b TraceEvent) int { return cmp.Compare(a.Cycle, b.Cycle) })
		for _, e := range events {
			l.trace.Emit(e)
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

// add folds a channel's load and stream accounting into r.
func (r *CoreSimResult) add(o *CoreSimResult) {
	r.LoadCycles += o.LoadCycles
	r.Stalls += o.Stalls
	r.Products += o.Products
	r.Deliveries += o.Deliveries
	r.Conflicts += o.Conflicts
	r.Stages.Merge(o.Stages)
	r.Counters.Add(o.Counters)
}

// Bytes reports the memory the layer holds: its timelines, trace events,
// per-channel statistics and output map.
func (l *CoreLayer) Bytes() int64 {
	n := int64(unsafe.Sizeof(*l)) + int64(cap(l.chans))*int64(unsafe.Sizeof(timeline{})) +
		int64(cap(l.costs))*8 + int64(cap(l.watoms))*int64(unsafe.Sizeof(0))
	for i := range l.chans {
		ch := &l.chans[i]
		n += int64(cap(ch.drains))*int64(unsafe.Sizeof(drainReq{})) + int64(cap(ch.events))*int64(unsafe.Sizeof(tileEvent{}))
		for _, e := range ch.events {
			n += int64(len(e.Detail))
		}
	}
	return n + int64(unsafe.Sizeof(*l.output)) + 4*int64(cap(l.output.Data))
}

// SimulateCore runs one layer through the whole-core simulator — the
// per-channel pass, then the per-shape step — and extracts the strided
// output. The numeric result is bit-exact against refconv.Conv. The input
// channels run on at most GOMAXPROCS goroutines, each owning one
// TileScratch; results and traces do not depend on how many.
func SimulateCore(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg CoreSimConfig) CoreSimResult {
	cfg = cfg.withDefaults()
	return PrepareCore(f, w, stride, pad, cfg).Run(cfg.Tiles, cfg.Policy)
}
