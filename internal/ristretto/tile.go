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
	"sync"

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
	Conflicts   int64 // crossbar deliveries deferred by a same-bank write
	Stages      telemetry.StageCycles
	Counters    energy.Counters
}

// delivery is one accumulated product on its way to an accumulate bank.
type delivery struct {
	k   uint16 // output channel (selects the bank)
	pos int32  // the Eq. 2 address of its output coordinate in the channel's plane
	val int32  // sign-applied partial sum, shifted by both the activation and the weight slice
}

// slot is one stage of the Atomputer chain: its static weight atom, in the
// form its deliveries need, plus its Atomulator FIFO cursor. The FIFO
// storage itself lives in TileScratch.fifo (a fixed-capacity ring window
// per slot).
type slot struct {
	// The product with the activation at tile position (x, y) lands at
	// full-convolution coordinate (dx+x, dy+y) (Eq. 1), so at plane
	// address pos + the Eq. 2 address of (x, y): both equations are linear.
	dx, dy int32
	pos    int32  // the Eq. 2 address of (dx, dy)
	mag    int32  // the weight digit, sign and slice shift applied
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
// caller sweeping many intersections (the per-channel pass's workers, the
// benchmark suite) pays the buffer allocations once instead of per
// intersection — and nothing at all per simulated cycle. All fields are
// sized lazily against the largest intersection seen. The zero value is
// ready to use.
//
// It is also the one Atomputer/Atomulator kernel, which the per-channel
// pass's job loop (coresim.go) calls for every simulator: startJob loads an
// intersection and splits its static stream into chunks, and runChunk runs
// one chunk to its end. A chunk whose slots hold pairwise distinct output
// channels cannot conflict or stall; when none of its products can fall
// outside the buffer either, runChunk computes it in closed form
// (runDistinct); any other chunk is stepped one pipeline cycle at a time
// (startChunk, then cycle until it reports the end). The stepped kernel
// only touches what is in flight: the chain is a window over the activation
// stream, only slots holding a Last atom deliver, and the crossbar visits
// the non-empty FIFOs of a bitmask.
//
// The modelled hardware drains its banks at the end of every weight slice
// and shifts them there. The host adds each product already shifted,
// (mag<<shift)·sum, which equals the drained (Σ val)<<shift modulo 2^32: a
// slice's drain only counts its entries (drainBanks), and the banks keep
// their sums across the jobs a scratch runs on one spatial tile. They
// reach that tile's accumulator (held) when the scratch's next job is on
// another tile, or when the run ends (release).
//
// Invariant between slices: marks is all-zero. Invariant between runs:
// bank and jobK are all-zero and held is nil, so re-use needs no explicit
// clearing: the per-channel pass releases each worker's scratch once its
// workers have returned (fanOut), and SimulateIntersectionScratch releases
// its scratch after its one job. A scratch also carries the temporaries of
// the weight-stream build and the per-channel pass's stream and drain
// buffers, so the fan-out's workers allocate only what they return.
type TileScratch struct {
	chunks   [][]core.WeightAtom // slice-aligned static-stream chunks
	lasts    []lastAtom          // the job's Last atoms in stream order
	slots    []slot
	fifo     []delivery // m×FIFODepth ring storage, window j = [j*depth, (j+1)*depth)
	live     []uint64   // bitmask over slots: FIFO holds a delivery
	busy     int        // FIFOs holding a delivery
	full     int        // FIFOs holding depth deliveries (the chain stalls)
	bank     []int32    // dense accumulate banks, image of held: the pre-shifted sums of the jobs since the last flush
	marks    []uint64   // [k*pw:(k+1)*pw]: the plane positions of channel k's banks the slice wrote
	jobK     []uint64   // bitset over output channels: a job since the last flush wrote the channel's banks
	lastSet  []uint64   // the Eq. 2 addresses of the job's Last atoms, a bitset over the plane
	written  []uint64   // per-cycle crossbar bank bitmask, indexed by output channel
	writtenK []uint16   // channels written this cycle, for sparse clearing

	held   *tensor.OutputMap // the accumulator bank images, nil when the banks are clear
	heldMu *sync.Mutex       // guards held against other goroutines' flushes, nil when none flushes into it

	streamer core.WeightStreamer // the per-channel pass's stream-build temporaries

	// The per-channel pass's buffers for the current input channel: its
	// weight stream, its activation stream on the current spatial tile,
	// and its drains (which SimulateIntersectionScratch borrows).
	weights []core.WeightAtom
	acts    []core.ActAtom
	drains  []drainReq

	// Geometry of the current job.
	t, depth     int // activation atoms in the stream; FIFO depth
	kh, kw       int
	fullW, fullH int
	plane        int32 // fullW*fullH
	pw           int   // words of a plane bitset
	maxX, maxY   int32 // the largest tile coordinates of the job's Last atoms

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
	s.kh, s.kw = out.H-tileH+1, out.W-tileW+1
	s.fullW, s.fullH = out.W, out.H
	s.plane = int32(out.W * out.H)
	s.pw = (out.W*out.H + 63) / 64
	s.lastSet = grow(s.lastSet, s.pw)
	clear(s.lastSet)
	s.lasts = s.lasts[:0]
	s.maxX, s.maxY = 0, 0
	var sum int32
	for i, a := range acts {
		sum += int32(a.Mag) << a.Shift
		if a.Last {
			addr := int32(core.OutAddr(int(a.X), int(a.Y), tileW, s.kw))
			s.lasts = append(s.lasts, lastAtom{i: int32(i), sum: sum, x: a.X, y: a.Y, addr: addr})
			s.maxX, s.maxY = max(s.maxX, int32(a.X)), max(s.maxY, int32(a.Y))
			if int(a.X) < out.W && int(a.Y) < out.H {
				s.lastSet[addr>>6] |= 1 << uint(addr&63)
			}
			sum = 0
		}
	}

	// A cycle writes each channel at most once, so writtenK is sized up
	// front.
	if bankLen := len(out.Data); cap(s.bank) < bankLen {
		s.bank = make([]int32, bankLen)
	} else {
		s.bank = s.bank[:bankLen]
	}
	s.marks = grow(s.marks, out.K*s.pw)
	s.jobK = grow(s.jobK, (out.K+63)/64)
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

// place returns weight atom w's slot geometry: the Eq. 1 offset (dx, dy)
// of its products — the one with the activation at tile position (x, y)
// lands at full-convolution coordinate (dx+x, dy+y) — and its digit, sign
// and slice shift applied.
func (s *TileScratch) place(w core.WeightAtom) (dx, dy, mag int32) {
	mag = int32(w.Mag) << w.Shift
	if w.Sign {
		mag = -mag
	}
	return int32(s.kw - 1 - int(w.X)), int32(s.kh - 1 - int(w.Y)), mag
}

// closedForm reports whether runDistinct may compute a chunk of the loaded
// job: its slots hold pairwise distinct output channels, and every product
// of a Last atom lands inside the full-convolution buffer. The channel
// check borrows the crossbar's per-cycle channel mask, which is clear
// between cycles, and clears it again.
func (s *TileScratch) closedForm(chunk []core.WeightAtom) bool {
	closed := true
	fullW, fullH := int32(s.fullW), int32(s.fullH)
	for _, w := range chunk {
		dx, dy, _ := s.place(w)
		bit := uint64(1) << (w.K & 63)
		closed = closed && s.written[w.K>>6]&bit == 0 && dx >= 0 && dy >= 0 && dx+s.maxX < fullW && dy+s.maxY < fullH
		s.written[w.K>>6] |= bit
	}
	for _, w := range chunk {
		s.written[w.K>>6] = 0
	}
	return closed
}

// startChunk loads a static-stream chunk into the chain with empty FIFOs and
// a zero tally, for cycle to step.
func (s *TileScratch) startChunk(chunk []core.WeightAtom) {
	m := len(chunk)
	if cap(s.slots) < m {
		s.slots = make([]slot, m)
	}
	s.slots = s.slots[:m]
	for j, w := range chunk {
		dx, dy, mag := s.place(w)
		s.slots[j] = slot{dx: dx, dy: dy, pos: dy*int32(s.fullW) + dx, mag: mag, k: w.K}
	}
	if need := m * s.depth; cap(s.fifo) < need {
		s.fifo = make([]delivery, need)
	}
	s.live = grow(s.live, (m+63)/64)
	clear(s.live)
	s.busy, s.full = 0, 0
	s.adv, s.lc, s.entered = 0, 0, 0
	s.tally = TileResult{}
}

// cycle advances the loaded chunk by one pipeline cycle and reports whether
// it is finished: the stream consumed, the chain empty and all FIFOs drained.
// runChunk steps it only for chunks closedForm turns down; for the others
// runDistinct computes its result in closed form. The lockstep
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
				s.accumulate(d)
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
				if uint(sl.dx+int32(la.x)) >= uint(s.fullW) || uint(sl.dy+int32(la.y)) >= uint(s.fullH) {
					continue // the comp module drops a product outside the buffer
				}
				tail := int(sl.head + sl.n)
				if tail >= depth {
					tail -= depth
				}
				s.fifo[j*depth+tail] = delivery{k: sl.k, pos: sl.pos + la.addr, val: sl.mag * la.sum}
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

// accumulate writes one delivery into its accumulate bank and marks the
// bank's plane position as written in the slice.
func (s *TileScratch) accumulate(d *delivery) {
	s.bank[int(d.k)*int(s.plane)+int(d.pos)] += d.val
	s.marks[int(d.k)*s.pw+int(d.pos>>6)] |= 1 << uint(d.pos&63)
}

// runChunk runs one static-stream chunk of the loaded job to its end: the
// chunk's cycles, entered cycle and tally land in s, its deliveries in the
// accumulate banks. A chunk that closedForm clears runs in closed form; any
// other is stepped cycle by cycle.
func (s *TileScratch) runChunk(chunk []core.WeightAtom) {
	if s.closedForm(chunk) {
		s.runDistinct(chunk)
		return
	}
	s.startChunk(chunk)
	for !s.cycle() {
	}
}

// runDistinct is the closed form of cycle's loop for a chunk of m slots
// with pairwise distinct output channels over a stream of t atoms, none of
// whose products falls outside the buffer. Every delivery a slot pushes
// goes to its own channel's banks, so the crossbar never defers one: each
// FIFO is emptied on the cycle after its push and never fills, and the
// chain advances every cycle. Slot j multiplies stream atom i on cycle
// i+j+1, the last atom enters on cycle t, the last product leaves slot m-1
// on cycle t+m-1 and its delivery is written on cycle t+m, the chunk's
// last.
//
// The chunk is SCNN's Cartesian product of its weights and the job's Last
// atoms, computed slot by slot. The Eq. 2 address is linear, so the plane
// positions a slot writes are the Last atoms' address set shifted by the
// slot's. The Atomulator writes on the cycle after each one that pushed a
// delivery, and Last atom i pushes on diagonals i..i+m-1: its busy cycles
// are the union of those windows.
func (s *TileScratch) runDistinct(chunk []core.WeightAtom) {
	t, m := int64(s.t), int64(len(chunk))
	r := &s.tally
	*r = TileResult{Cycles: t + m, Products: t * m}
	s.entered = t
	plane, pw := int(s.plane), s.pw
	for _, w := range chunk {
		dx, dy, mag := s.place(w)
		pos := int(dy)*s.fullW + int(dx)
		orShifted(s.marks[int(w.K)*pw:][:pw], s.lastSet, pos)
		bank := s.bank[int(w.K)*plane+pos:]
		for _, la := range s.lasts {
			bank[la.addr] += mag * la.sum
		}
	}
	var writes int64
	for q, la := range s.lasts {
		if q+1 < len(s.lasts) {
			writes += min(m, int64(s.lasts[q+1].i-la.i))
		} else {
			writes += m
		}
	}
	delivered := m * int64(len(s.lasts))
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
// into a job's accounting.
func (s *TileScratch) fold(sum *CoreSimResult) {
	r := &s.tally
	sum.Stalls += r.StallCycles
	sum.Products += r.Products
	sum.Deliveries += r.Deliveries
	sum.Conflicts += r.Conflicts
	sum.Stages.Merge(r.Stages)
	sum.Counters.Add(r.Counters)
}

// orShifted ORs the bitset src, shifted up by off bits, into dst, which is
// as long as src; the caller guarantees no set bit is shifted past its end.
func orShifted(dst, src []uint64, off int) {
	q, r := off>>6, uint(off&63)
	var carry uint64
	for i, w := range src[:len(dst)-q] {
		dst[q+i] |= w<<r | carry
		carry = w >> (64 - r) // 0 when r is 0
	}
}

// drainBanks ends a weight slice: it returns the number of accumulate-bank
// entries the modelled hardware drains through the output port, the
// distinct bank positions the slice's deliveries wrote, and clears their
// marks, recording which channels it wrote. The values stay in the banks,
// already shifted, until the scratch flushes them. Traffic accounting (4 B
// accumulate-buffer read + 4 B output-buffer write per entry, the unified
// convention of both simulators) lands in acc.
func (s *TileScratch) drainBanks(acc *energy.Counters) int {
	n, pw := 0, s.pw
	for k := 0; k*pw < len(s.marks); k++ {
		row, c := s.marks[k*pw:][:pw], 0
		for i, w := range row {
			c += bits.OnesCount64(w)
			row[i] = 0
		}
		if c > 0 {
			s.jobK[k>>6] |= 1 << uint(k&63)
			n += c
		}
	}
	acc.AccBufBytes += 4 * int64(n)
	acc.OutputBufBytes += 4 * int64(n)
	return n
}

// flush adds the banks of every channel written since the last flush into
// dst, the accumulator they image, and clears them.
func (s *TileScratch) flush(dst []int32) {
	plane := int(s.plane)
	for wi, word := range s.jobK {
		for word != 0 {
			k := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			src, out := s.bank[k*plane:][:plane], dst[k*plane:][:plane]
			for i, v := range src {
				out[i] += v
				src[i] = 0
			}
		}
		s.jobK[wi] = 0
	}
}

// release flushes the banks into the accumulator they hold sums for, if
// any, holding its lock if it has one.
func (s *TileScratch) release() {
	if s.held == nil {
		return
	}
	if s.heldMu != nil {
		s.heldMu.Lock()
		defer s.heldMu.Unlock()
	}
	s.flush(s.held.Data)
	s.held, s.heldMu = nil, nil
}

// SimulateIntersectionScratch runs one (input channel, spatial tile)
// intersection on the cycle-level tile model, as one job of the per-channel
// pass: the weight atom stream is split into static chunks that never
// straddle a slice boundary (so every accumulate-bank drain has a single
// decoupled shift); for each chunk the activation stream flows through the
// systolic multiplier chain one atom per cycle; accumulator deliveries are
// routed through per-slot FIFOs and a crossbar that accepts one write per
// bank per cycle, stalling the pipeline on back-pressure.
//
// Numerical results accumulate into out (the K×fullH×fullW full-convolution
// buffer); cycle accounting credits the ping-pong weight registers: a
// non-final round costs t (+stalls) cycles because its drain overlaps the
// next round's fill (Eq. 3/4).
//
// s is caller-owned scratch (NewTileScratch): reused across a sweep, the
// call performs no heap allocation at all.
func SimulateIntersectionScratch(acts []core.ActAtom, weights []core.WeightAtom, kh, kw, tileW, tileH int, out *tensor.OutputMap, cfg TileConfig, s *TileScratch) TileResult {
	fullW, fullH := tileW+kw-1, tileH+kh-1
	if out.W != fullW || out.H != fullH {
		panic(fmt.Sprintf("ristretto: out buffer %dx%d, want %dx%d", out.W, out.H, fullW, fullH))
	}
	ccfg := CoreSimConfig{Tile: cfg}.withDefaults()
	tl := timeline{drains: s.drains[:0]}
	var sum CoreSimResult
	s.job(&tl, &sum, &ccfg, occupancy(), 0, tensor.Tile{W: tileW, H: tileH}, out, nil, acts, weights)
	s.release()
	s.drains = tl.drains
	telemetry.Default.AddStageCycles(sum.Stages)
	return TileResult{Cycles: tl.cycles, StallCycles: sum.Stalls, Products: sum.Products, Deliveries: sum.Deliveries,
		Conflicts: sum.Conflicts, Stages: sum.Stages, Counters: sum.Counters}
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
