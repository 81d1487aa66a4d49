// Package ristretto implements the Ristretto accelerator of Section IV: a
// cycle-level simulator of one compute tile (Atomizer → Atomputer →
// Atomulator → accumulate buffer) that is bit-exact against the dense
// reference convolution, plus the analytic multi-tile performance and energy
// model (Eq. 3–5) used for full-network evaluation and cross-validated
// against the cycle simulator.
package ristretto

import (
	"fmt"
	"math/bits"

	"ristretto/internal/atom"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
)

// TileConfig parameterizes one compute tile.
type TileConfig struct {
	Mults     int              // N: atom multipliers / static-stream slots
	Gran      atom.Granularity // atom bit-width
	FIFODepth int              // Atomulator FIFO depth before the crossbar
}

func (c TileConfig) withDefaults() TileConfig {
	if c.Mults == 0 {
		c.Mults = 32
	}
	if c.Gran == 0 {
		c.Gran = 2
	}
	if c.FIFODepth == 0 {
		c.FIFODepth = 4
	}
	return c
}

// TileResult reports one intersection run on the cycle simulator.
type TileResult struct {
	Cycles      int64 // pipeline cycles including stalls, with ping-pong round overlap
	StallCycles int64 // every cycle the chain could not advance on FIFO back-pressure (fill and drain phases alike — the unified definition shared with the core sim)
	Products    int64 // atom multiplications performed
	Deliveries  int64 // accumulator deliveries routed through the crossbar
	Rounds      int   // static-stream chunks processed
	Conflicts   int64 // crossbar deliveries deferred by a same-bank write
	Stages      telemetry.StageCycles
	Counters    energy.Counters
}

// delivery is one accumulated product on its way to an accumulate bank.
type delivery struct {
	k   uint16 // output channel (selects the bank)
	idx int32  // dense accumulate-buffer index: k*fullH*fullW + Eq. 2 address
	val int32  // sign-applied, activation-shift-applied partial sum
}

// slot is one stage of the Atomputer chain: its static weight atom, in the
// form its deliveries need, plus its Atomulator FIFO cursor. The FIFO
// storage itself lives in TileScratch.fifo (a fixed-capacity ring window
// per slot).
type slot struct {
	// The product with the activation at tile position (x, y) lands at
	// full-convolution coordinate (dx+x, dy+y) (Eq. 1), so at bank index
	// off + the Eq. 2 address of (x, y): both equations are linear.
	dx, dy int32
	off    int32  // k*fullH*fullW + the Eq. 2 address of (dx, dy)
	mag    int32  // the weight digit, sign applied
	k      uint16 // output channel (selects the bank)
	head   int32  // ring cursor into this slot's FIFO window
	n      int32  // FIFO occupancy
}

// lastAtom is one Last-flagged atom of a job's activation stream. Only these
// deliver: a slot holding one sends w.Mag·sum, the product its multiplier
// accumulated over the atoms of the value the Last atom closes (w is fixed
// within a chunk, so the per-atom sums and this one product agree in
// wrapping int32).
type lastAtom struct {
	i    int32 // stream index
	sum  int32 // Σ Mag<<Shift over the atoms of the value it closes
	x, y uint8 // the value's tile coordinates
	addr int32 // the Eq. 2 address of (x, y)
}

// TileScratch owns the reusable simulation state of one compute tile, so a
// caller sweeping many intersections (SimulateConv, the benchmark suite, the
// daemon) pays the buffer allocations once instead of per intersection — and
// nothing at all per simulated cycle. All fields are sized lazily against
// the largest intersection seen. The zero value is ready to use.
//
// It is also the one Atomputer/Atomulator kernel both simulators call:
// startJob loads an intersection and splits its static stream into chunks,
// and runChunk runs one chunk to its end, for SimulateIntersectionScratch
// and for each compute tile of the core simulator alike. A chunk whose
// slots hold pairwise distinct output channels cannot conflict or stall,
// so runChunk computes it in closed form (runDistinct); any other chunk is
// stepped one pipeline cycle at a time (startChunk, then cycle until it
// reports the end). The stepped kernel only touches what is in flight: the
// chain is a window over the activation stream, only slots holding a Last
// atom deliver, and the crossbar visits the non-empty FIFOs of a bitmask.
//
// Invariant between runs: bank is all-zero and present/touched empty (every
// run drains fully), so re-use needs no explicit clearing. A scratch also
// carries the temporaries of the weight-stream build and the per-channel
// pass's stream and drain buffers, so the fan-out's workers allocate only
// what they return.
type TileScratch struct {
	chunks   [][]core.WeightAtom // slice-aligned static-stream chunks
	lasts    []lastAtom          // the job's Last atoms in stream order
	slots    []slot
	fifo     []delivery // m×FIFODepth ring storage, window j = [j*depth, (j+1)*depth)
	live     []uint64   // bitmask over slots: FIFO holds a delivery
	busy     int        // FIFOs holding a delivery
	full     int        // FIFOs holding depth deliveries (the chain stalls)
	bank     []int32    // dense accumulate banks, image of the out buffer
	present  []uint64   // bitset over bank: entry holds a partial sum
	touched  []int32    // bank indices in first-write order (deterministic drain order)
	written  []uint64   // per-cycle crossbar bank bitmask, indexed by output channel
	writtenK []uint16   // channels written this cycle, for sparse clearing

	streamer core.WeightStreamer // the stream build's temporaries (PrepareCore, buildStreams)

	// PrepareCore's buffers for the current input channel: its weight
	// stream, its activation stream on the current spatial tile, and its
	// drains.
	weights []core.WeightAtom
	acts    []core.ActAtom
	drains  []drainReq

	// Geometry of the current job.
	t, depth     int // activation atoms in the stream; FIFO depth
	kh, kw       int
	tileW        int
	fullW, fullH int
	plane        int32 // fullW*fullH

	// Progress of the current chunk. The chain is a window: after adv
	// advances, slot s holds stream atom adv-1-s (when that index exists),
	// so nothing shifts.
	adv     int
	lc      int        // first lasts entry not yet shifted out of the chain
	entered int64      // cycles until the last activation atom entered the chain
	tally   TileResult // the chunk's cycles, stalls, work, stage cycles and counters
}

// NewTileScratch returns an empty scratch; buffers grow on first use.
func NewTileScratch() *TileScratch { return &TileScratch{} }

// startJob loads one intersection of a tileW×tileH tile: it indexes the
// Last atoms of acts, takes the kernel size from the full-convolution buffer
// out, sizes the accumulate banks for it and returns the static stream split
// into slice-aligned chunks of at most cfg.Mults atoms.
func (s *TileScratch) startJob(acts []core.ActAtom, weights []core.WeightAtom, tileW, tileH int, out *tensor.OutputMap, cfg TileConfig) [][]core.WeightAtom {
	s.t, s.depth = len(acts), cfg.FIFODepth
	s.kh, s.kw, s.tileW = out.H-tileH+1, out.W-tileW+1, tileW
	s.fullW, s.fullH = out.W, out.H
	s.plane = int32(out.W * out.H)
	s.lasts = s.lasts[:0]
	var sum int32
	for i, a := range acts {
		sum += int32(a.Mag) << a.Shift
		if a.Last {
			addr := int32(core.OutAddr(int(a.X), int(a.Y), tileW, s.kw))
			s.lasts = append(s.lasts, lastAtom{i: int32(i), sum: sum, x: a.X, y: a.Y, addr: addr})
			sum = 0
		}
	}

	// The touched list holds each bank index at most once and a cycle
	// writes each channel at most once, so both are sized up front.
	if bankLen := len(out.Data); cap(s.bank) < bankLen {
		s.bank = make([]int32, bankLen)
		s.present = make([]uint64, (bankLen+63)/64)
		s.touched = make([]int32, 0, bankLen)
	} else {
		s.bank = s.bank[:bankLen]
		s.present = s.present[:(bankLen+63)/64]
	}
	if cap(s.writtenK) < out.K {
		s.writtenK = make([]uint16, 0, out.K)
	}
	s.written = grow(s.written, (out.K+63)/64)

	s.chunks = s.chunks[:0]
	for start := 0; start < len(weights); {
		end := start
		for end < len(weights) && end-start < cfg.Mults && weights[end].Shift == weights[start].Shift {
			end++
		}
		s.chunks = append(s.chunks, weights[start:end])
		start = end
	}
	return s.chunks
}

// grow returns v resliced to n words, reallocating only when it is short.
func grow(v []uint64, n int) []uint64 {
	if cap(v) < n {
		return make([]uint64, n)
	}
	return v[:n]
}

// startChunk loads a static-stream chunk into the chain with empty FIFOs and
// a zero tally, and reports whether its slots hold pairwise distinct output
// channels. The check borrows the crossbar's per-cycle channel mask, which
// is clear between cycles, and clears it again.
func (s *TileScratch) startChunk(chunk []core.WeightAtom) (distinct bool) {
	m := len(chunk)
	if cap(s.slots) < m {
		s.slots = make([]slot, m)
	}
	s.slots = s.slots[:m]
	distinct = true
	for j, w := range chunk {
		dx, dy := core.OutCoord(int(w.X), int(w.Y), 0, 0, s.kh, s.kw)
		mag := int32(w.Mag)
		if w.Sign {
			mag = -mag
		}
		s.slots[j] = slot{dx: int32(dx), dy: int32(dy), off: int32(w.K)*s.plane + int32(core.OutAddr(dx, dy, s.tileW, s.kw)), mag: mag, k: w.K}
		bit := uint64(1) << (w.K & 63)
		distinct = distinct && s.written[w.K>>6]&bit == 0
		s.written[w.K>>6] |= bit
	}
	for _, w := range chunk {
		s.written[w.K>>6] = 0
	}
	if need := m * s.depth; cap(s.fifo) < need {
		s.fifo = make([]delivery, need)
	}
	s.live = grow(s.live, (m+63)/64)
	clear(s.live)
	s.busy, s.full = 0, 0
	s.adv, s.lc, s.entered = 0, 0, 0
	s.tally = TileResult{}
	return distinct
}

// cycle advances the loaded chunk by one pipeline cycle and reports whether
// it is finished: the stream consumed, the chain empty and all FIFOs drained.
// runChunk steps it only for chunks that repeat an output channel; for the
// others runDistinct computes its result in closed form. The lockstep
// oracle of the core simulator's tests steps it for every chunk, so the
// tests hold the two paths to each other.
//
//  1. Crossbar: each bank accepts one delivery per cycle, FIFOs visited in
//     ascending slot order; a delivery whose bank was already written this
//     cycle is deferred (a conflict).
//  2. The chain advances unless a FIFO is full (the conservative stall):
//     the next activation atom enters slot 0, every occupied slot
//     multiplies, and each slot holding a Last atom pushes its value's
//     partial sum into its FIFO if the comp module keeps the output
//     coordinate.
func (s *TileScratch) cycle() bool {
	r := &s.tally
	depth := s.depth
	pending, wrote := s.busy > 0, 0
	if pending {
		for wi, word := range s.live {
			for word != 0 {
				j := wi<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				sl := &s.slots[j]
				d := &s.fifo[j*depth+int(sl.head)]
				kw, kb := d.k>>6, uint(d.k&63)
				if s.written[kw]&(1<<kb) != 0 {
					r.Conflicts++
					continue
				}
				s.written[kw] |= 1 << kb
				s.writtenK = append(s.writtenK, d.k)
				if int(sl.n) == depth {
					s.full--
				}
				if sl.head++; int(sl.head) == depth {
					sl.head = 0
				}
				if sl.n--; sl.n == 0 {
					s.busy--
					s.live[wi] &^= 1 << uint(j&63)
				}
				s.accumulate(d.idx, d.val)
				wrote++
			}
		}
		for _, k := range s.writtenK {
			s.written[k>>6] &^= 1 << uint(k&63)
		}
		s.writtenK = s.writtenK[:0]
		r.Counters.AccBufBytes += 4 * int64(wrote)
	}

	advance := s.full == 0
	hadInput := s.adv < s.t
	fed, multed := false, false
	if advance {
		s.adv++
		a := s.adv
		if a <= s.t {
			fed = true
			r.Counters.AtomizerOps++
			// The activation stream is re-read from the input buffer each
			// ping-pong round: ≈1 B per atom incl. coords, charged as fed.
			r.Counters.InputBufBytes++
		}
		// The chain holds stream atoms [lo, hi]; every one multiplies.
		lo, hi := max(a-len(s.slots), 0), min(a, s.t)-1
		if lo <= hi {
			multed = true
			width := int64(hi - lo + 1)
			r.Products += width
			r.Counters.AtomMuls += width
			for s.lc < len(s.lasts) && int(s.lasts[s.lc].i) < lo {
				s.lc++
			}
			for _, la := range s.lasts[s.lc:] {
				if int(la.i) > hi {
					break
				}
				j := a - 1 - int(la.i)
				sl := &s.slots[j]
				d, ok := s.product(sl, &la)
				if !ok {
					continue
				}
				tail := int(sl.head + sl.n)
				if tail >= depth {
					tail -= depth
				}
				s.fifo[j*depth+tail] = d
				if sl.n == 0 {
					s.busy++
					s.live[j>>6] |= 1 << uint(j&63)
				}
				if sl.n++; int(sl.n) == depth {
					s.full++
				}
				r.Deliveries++
			}
		}
	} else {
		// Unified stall definition: every cycle lost to FIFO back-pressure
		// counts, whether the stream is still feeding or the chain is
		// draining.
		r.StallCycles++
	}
	classifyStages(&r.Stages, fed, multed, advance, hadInput, pending, wrote)
	r.Cycles++
	if s.entered == 0 && s.adv >= s.t {
		s.entered = r.Cycles
	}
	return s.adv >= s.t+len(s.slots) && s.busy == 0
}

// product is the delivery slot sl sends when Last atom la reaches it. It
// reports false when the comp module drops the product because its output
// coordinate falls outside the full-convolution buffer.
func (s *TileScratch) product(sl *slot, la *lastAtom) (delivery, bool) {
	if uint(sl.dx+int32(la.x)) >= uint(s.fullW) || uint(sl.dy+int32(la.y)) >= uint(s.fullH) {
		return delivery{}, false
	}
	return delivery{k: sl.k, idx: sl.off + la.addr, val: sl.mag * la.sum}, true
}

// accumulate writes one delivery into accumulate bank idx, recording the
// bank's first write.
func (s *TileScratch) accumulate(idx, val int32) {
	if s.present[idx>>6]&(1<<uint(idx&63)) == 0 {
		s.present[idx>>6] |= 1 << uint(idx&63)
		s.touched = append(s.touched, idx)
	}
	s.bank[idx] += val
}

// runChunk runs one static-stream chunk of the loaded job to its end: the
// chunk's cycles, entered cycle and tally land in s, its deliveries in the
// accumulate banks. A chunk whose slots hold pairwise distinct output
// channels runs in closed form; any other is stepped cycle by cycle.
func (s *TileScratch) runChunk(chunk []core.WeightAtom) {
	if s.startChunk(chunk) {
		s.runDistinct()
		return
	}
	for !s.cycle() {
	}
}

// runDistinct is the closed form of cycle's loop for a loaded chunk of m
// slots with pairwise distinct output channels over a stream of t atoms.
// Every delivery a slot pushes goes to its own channel's banks, so the
// crossbar never defers one: each FIFO is emptied on the cycle after its
// push and never fills, and the chain advances every cycle. Slot j
// multiplies stream atom i on cycle i+j+1, the last atom enters on cycle t,
// the last product leaves slot m-1 on cycle t+m-1 and its delivery is
// written on cycle t+m, the chunk's last. The crossbar writes the
// deliveries pushed on one cycle on the next, slots ascending, so they are
// applied diagonal by diagonal (d = i+j), slots ascending: the loop's
// first-write order.
func (s *TileScratch) runDistinct() {
	t, m := int64(s.t), int64(len(s.slots))
	r := &s.tally
	*r = TileResult{Cycles: t + m, Products: t * m}
	s.entered = t
	// The Atomulator writes on the cycle after each cycle that pushed a
	// delivery, and is idle on every other cycle.
	var writes, delivered int64
	lasts := s.lasts
	for d, lo, hi := 0, 0, 0; lo < len(lasts); d++ {
		// Slots 0..m-1 hold stream atoms d..d-m+1: Last atoms lasts[lo:hi].
		for hi < len(lasts) && int(lasts[hi].i) <= d {
			hi++
		}
		for lo < hi && int64(lasts[lo].i) <= int64(d)-m {
			lo++
		}
		n := delivered
		for q := hi - 1; q >= lo; q-- {
			la := &lasts[q]
			if dl, ok := s.product(&s.slots[d-int(la.i)], la); ok {
				s.accumulate(dl.idx, dl.val)
				delivered++
			}
		}
		if delivered > n {
			writes++
		}
	}
	r.Deliveries = delivered
	r.Counters.AccBufBytes = 4 * delivered
	r.Counters.AtomMuls = t * m
	r.Counters.AtomizerOps = t
	r.Counters.InputBufBytes = t
	// The Atomizer feeds on cycles 1..t; the Atomputer multiplies on every
	// cycle but the last, when the chain is empty.
	st := &r.Stages
	st.Busy[telemetry.StageAtomizer], st.Idle[telemetry.StageAtomizer] = t, m
	st.Busy[telemetry.StageAtomputer], st.Idle[telemetry.StageAtomputer] = t+m-1, 1
	st.Busy[telemetry.StageAtomulator], st.Idle[telemetry.StageAtomulator] = writes, t+m-writes
}

// fold adds the finished chunk's stalls, work, stage cycles and counters
// into a simulator's result fields.
func (s *TileScratch) fold(stalls, products, deliveries, conflicts *int64, stages *telemetry.StageCycles, cnt *energy.Counters) {
	r := &s.tally
	*stalls += r.StallCycles
	*products += r.Products
	*deliveries += r.Deliveries
	*conflicts += r.Conflicts
	stages.Merge(r.Stages)
	cnt.Add(r.Counters)
}

// drainBanks applies the decoupled weight-slice shift and aggregates every
// touched accumulate bank into dst, clearing the banks. The drain walks the
// touched list in first-write order — deterministic because the simulation
// is. It returns the number of entries drained; traffic accounting (4 B
// accumulate-buffer read + 4 B output-buffer write per entry, the unified
// convention of both simulators) lands in acc.
func (s *TileScratch) drainBanks(dst []int32, shift uint8, acc *energy.Counters) int {
	for _, idx := range s.touched {
		dst[idx] += s.bank[idx] << shift
		s.bank[idx] = 0
		s.present[idx>>6] &^= 1 << uint(idx&63)
	}
	n := len(s.touched)
	s.touched = s.touched[:0]
	acc.AccBufBytes += 4 * int64(n)
	acc.OutputBufBytes += 4 * int64(n)
	return n
}

// SimulateIntersectionScratch runs one (input channel, spatial tile)
// intersection on the cycle-level tile model: the weight atom stream is
// split into static chunks that never straddle a slice boundary (so every
// accumulate-bank drain has a single decoupled shift); for each chunk the
// activation stream flows through the systolic multiplier chain one atom per
// cycle; accumulator deliveries are routed through per-slot FIFOs and a
// crossbar that accepts one write per bank per cycle, stalling the pipeline
// on back-pressure.
//
// Numerical results accumulate into out (the K×fullH×fullW full-convolution
// buffer); cycle accounting credits the ping-pong weight registers: a
// non-final round costs t (+stalls) cycles because its drain overlaps the
// next round's fill (Eq. 3/4).
//
// s is caller-owned scratch (NewTileScratch): reused across a sweep, the
// hot loop performs no heap allocation at all.
func SimulateIntersectionScratch(acts []core.ActAtom, weights []core.WeightAtom, kh, kw, tileW, tileH int, out *tensor.OutputMap, cfg TileConfig, s *TileScratch) TileResult {
	cfg = cfg.withDefaults()
	fullW, fullH := tileW+kw-1, tileH+kh-1
	if out.W != fullW || out.H != fullH {
		panic(fmt.Sprintf("ristretto: out buffer %dx%d, want %dx%d", out.W, out.H, fullW, fullH))
	}
	var res TileResult
	if len(acts) == 0 || len(weights) == 0 {
		return res
	}

	chunks := s.startJob(acts, weights, tileW, tileH, out, cfg)
	var occHist *telemetry.Histogram
	if telemetry.Default.Enabled() {
		occHist = telemetry.Default.Histogram("ristretto.accbuf.occupancy_entries")
	}

	for ci, chunk := range chunks {
		res.Rounds++
		// Static-stream load: 1 B per atom (incl. metadata) every round —
		// the ping-pong registers hide the load latency, not the traffic.
		res.Counters.WeightBufBytes += int64(len(chunk))
		s.runChunk(chunk)
		s.fold(&res.StallCycles, &res.Products, &res.Deliveries, &res.Conflicts, &res.Stages, &res.Counters)
		// Ping-pong overlap: all but the final chunk hide their drain under
		// the next chunk's fill.
		last := ci == len(chunks)-1
		if last {
			res.Cycles += s.tally.Cycles
		} else {
			res.Cycles += s.entered
		}
		// Drain the accumulate banks at slice boundaries (decoupled shift).
		if last || chunks[ci+1][0].Shift != chunk[0].Shift {
			if occHist != nil {
				occHist.Observe(int64(len(s.touched)))
			}
			s.drainBanks(out.Data, chunk[0].Shift, &res.Counters)
		}
	}
	telemetry.Default.AddStageCycles(res.Stages)
	return res
}

// classifyStages attributes one pipeline cycle to the busy/stall/idle bucket
// of each of the three stages (the accounting behind the -telemetry
// stage-utilization table):
//
//   - Atomizer: busy when it injected an atom, stalled when it had atoms to
//     feed but back-pressure blocked the advance, idle once the stream is
//     exhausted (chain drain).
//   - Atomputer: busy when any multiplier stage held an atom this cycle,
//     stalled when the chain could not advance, idle when it advanced empty.
//   - Atomulator: busy when the crossbar committed at least one delivery,
//     stalled when deliveries were pending but none could commit, idle when
//     no delivery was waiting.
//
// The classification is computed from values the simulators already
// maintain, so it costs a few branches per cycle whether or not telemetry
// is enabled — the flush to the registry is what Enabled gates.
func classifyStages(sc *telemetry.StageCycles, fed, multed, advance, hadInput, pending bool, wrote int) {
	switch {
	case fed:
		sc.Busy[telemetry.StageAtomizer]++
	case !advance && hadInput:
		sc.Stall[telemetry.StageAtomizer]++
	default:
		sc.Idle[telemetry.StageAtomizer]++
	}
	switch {
	case advance && multed:
		sc.Busy[telemetry.StageAtomputer]++
	case !advance:
		sc.Stall[telemetry.StageAtomputer]++
	default:
		sc.Idle[telemetry.StageAtomputer]++
	}
	switch {
	case wrote > 0:
		sc.Busy[telemetry.StageAtomulator]++
	case pending:
		sc.Stall[telemetry.StageAtomulator]++
	default:
		sc.Idle[telemetry.StageAtomulator]++
	}
}

// SliceAlignedSteps predicts the stall-free cycle count of
// SimulateIntersectionScratch: like core.Steps (Eq. 3/4) but with rounds
// that never straddle weight-slice boundaries.
func SliceAlignedSteps(t int, weights []core.WeightAtom, n int) int64 {
	if t == 0 || len(weights) == 0 {
		return 0
	}
	rounds := 0
	lastChunk := 0
	start := 0
	for start < len(weights) {
		end := start
		for end < len(weights) && end-start < n && weights[end].Shift == weights[start].Shift {
			end++
		}
		rounds++
		lastChunk = end - start
		start = end
	}
	return int64(t)*int64(rounds) + int64(lastChunk) - 1
}
