package ristretto

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/tensor"
)

// refSlot is one stage of the reference shift-register chain: the
// activation register and running accumulator are explicit per slot.
type refSlot struct {
	w        core.WeightAtom
	acc      int32
	reg      core.ActAtom
	regValid bool
	fifo     []delivery
}

// refChain is an independent oracle for the chain kernel: the
// shift-register model in which every cycle visits every slot — the
// crossbar scans all FIFOs, the activation registers shift one stage, every
// occupied stage multiplies into its accumulator and a Last atom sends the
// accumulator to its FIFO. Accumulate banks are a map plus a first-write
// order list.
type refChain struct {
	kh, kw, tileW, fullW, fullH, depth int
	plane                              int32
	bank                               map[int32]int32
	touched                            []int32
}

// runChunk runs one chunk to completion and returns its cycles, the cycle
// the last activation atom entered the chain, and its tally.
func (c *refChain) runChunk(acts []core.ActAtom, chunk []core.WeightAtom) (entered int64, r TileResult) {
	slots := make([]refSlot, len(chunk))
	for j := range slots {
		slots[j].w = chunk[j]
	}
	pos := 0
	for {
		// Crossbar: ascending slots, one write per bank per cycle.
		pending, wrote := false, 0
		written := map[uint16]bool{}
		for j := range slots {
			sl := &slots[j]
			if len(sl.fifo) == 0 {
				continue
			}
			pending = true
			d := sl.fifo[0]
			if written[d.k] {
				r.Conflicts++
				continue
			}
			written[d.k] = true
			sl.fifo = sl.fifo[1:]
			if _, ok := c.bank[d.idx]; !ok {
				c.touched = append(c.touched, d.idx)
			}
			c.bank[d.idx] += d.val
			wrote++
			r.Counters.AccBufBytes += 4
		}
		advance := true
		for j := range slots {
			if len(slots[j].fifo) >= c.depth {
				advance = false
			}
		}
		hadInput := pos < len(acts)
		fed, multed := false, false
		if advance {
			for j := len(slots) - 1; j > 0; j-- {
				slots[j].reg, slots[j].regValid = slots[j-1].reg, slots[j-1].regValid
			}
			slots[0].regValid = pos < len(acts)
			if slots[0].regValid {
				slots[0].reg = acts[pos]
				pos++
				fed = true
				r.Counters.AtomizerOps++
				r.Counters.InputBufBytes++
			}
			for j := range slots {
				sl := &slots[j]
				if !sl.regValid {
					continue
				}
				multed = true
				r.Products++
				r.Counters.AtomMuls++
				a := sl.reg
				sl.acc += int32(sl.w.Mag) * (int32(a.Mag) << a.Shift)
				if !a.Last {
					continue
				}
				v := sl.acc
				if sl.w.Sign {
					v = -v
				}
				sl.acc = 0
				xo, yo := core.OutCoord(int(sl.w.X), int(sl.w.Y), int(a.X), int(a.Y), c.kh, c.kw)
				if xo >= 0 && xo < c.fullW && yo >= 0 && yo < c.fullH {
					sl.fifo = append(sl.fifo, delivery{k: sl.w.K, idx: int32(sl.w.K)*c.plane + int32(core.OutAddr(xo, yo, c.tileW, c.kw)), val: v})
					r.Deliveries++
				}
			}
		} else {
			r.StallCycles++
		}
		classifyStages(&r.Stages, fed, multed, advance, hadInput, pending, wrote)
		r.Cycles++
		if pos >= len(acts) && entered == 0 {
			entered = r.Cycles
		}
		empty := true
		for j := range slots {
			if slots[j].regValid || len(slots[j].fifo) != 0 {
				empty = false
			}
		}
		if pos >= len(acts) && empty {
			return entered, r
		}
	}
}

// drain moves the reference banks into dst with the slice shift, in
// first-write order.
func (c *refChain) drain(dst []int32, shift uint8) {
	for _, idx := range c.touched {
		dst[idx] += c.bank[idx] << shift
	}
	c.bank = map[int32]int32{}
	c.touched = c.touched[:0]
}

// decodeChain turns fuzzer bytes into an intersection: three bytes per
// activation atom (magnitude; shift and Last flag; coordinates, possibly
// outside the tile) and per weight atom (magnitude; slice shift and sign;
// kernel coordinates and output channel).
func decodeChain(mults, depth, geom, outK uint8, actBytes, wBytes []byte) (acts []core.ActAtom, ws []core.WeightAtom, cfg TileConfig, kh, kw, tileW, tileH int, out *tensor.OutputMap) {
	kh, kw = 1+int(geom)%3, 1+int(geom/3)%3
	tileW, tileH = 1+int(geom/9)%4, 1+int(geom/36)%4
	k := 1 + int(outK)%4
	for i := 0; i+2 < len(actBytes) && len(acts) < 96; i += 3 {
		acts = append(acts, core.ActAtom{Mag: actBytes[i], Shift: actBytes[i+1] & 63, Last: actBytes[i+1]&64 != 0,
			X: actBytes[i+2] & 7, Y: actBytes[i+2] >> 3 & 7})
	}
	for i := 0; i+2 < len(wBytes) && len(ws) < 400; i += 3 {
		ws = append(ws, core.WeightAtom{Mag: wBytes[i], Shift: wBytes[i+1] & 7, Sign: wBytes[i+1]&8 != 0,
			X: wBytes[i+2] & 3, Y: wBytes[i+2] >> 2 & 3, K: uint16(int(wBytes[i+2]>>4) % k)})
	}
	cfg = TileConfig{Mults: 1 + int(mults), FIFODepth: 1 + int(depth)%8}.withDefaults()
	return acts, ws, cfg, kh, kw, tileW, tileH, tensor.NewOutputMap(k, tileH+kh-1, tileW+kw-1)
}

// FuzzChainKernel runs fuzzer-chosen activation and weight atom streams,
// multiplier counts (1–256, so up to four FIFO mask words) and FIFO depths
// (1–8) through the chain kernel's runChunk and through refChain, chunk by
// chunk, so it checks the closed form (a chunk of distinct output channels)
// and the stepped loop alike. Per-chunk cycles, entered cycle, stalls, work
// counts, stage cycles, energy counters and the accumulate-bank contents in
// touched order must match, and so must the drained output buffer.
func FuzzChainKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int, mask byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) & mask
		}
		return b
	}
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), []byte{1, 64, 0, 1, 64, 1}, []byte{1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add(uint8(31), uint8(3), uint8(40), uint8(3), randBytes(60, 0xff), randBytes(120, 0xff))
	f.Add(uint8(99), uint8(1), uint8(17), uint8(2), randBytes(90, 0x7f), randBytes(600, 0xf0))
	f.Add(uint8(0), uint8(7), uint8(100), uint8(1), randBytes(30, 0x7f), randBytes(45, 0xff))
	f.Add(uint8(255), uint8(5), uint8(143), uint8(3), randBytes(150, 0xff), randBytes(900, 0xf7))
	// Closed-form chunks: FIFO depth 1 on a 3×3 kernel over a 4×4 tile, with
	// channels 0–3 in slice 0 and slice 1 and a repeated channel 0 in slice
	// 2, which steps; then a single multiplier, where every chunk is one
	// atom; then one-atom streams, with and without the Last flag.
	f.Add(uint8(3), uint8(0), uint8(143), uint8(3),
		[]byte{3, 64, 0x00, 1, 2, 0x01, 2, 64 | 2, 0x01, 1, 64, 0x09, 3, 0, 0x1b, 2, 64 | 4, 0x1b},
		[]byte{1, 0, 0x00, 2, 8, 0x15, 3, 0, 0x2a, 1, 8, 0x35, 2, 1, 0x25, 3, 1, 0x10, 1, 9, 0x3a, 2, 1, 0x00, 1, 2, 0x00, 3, 2, 0x04})
	f.Add(uint8(0), uint8(0), uint8(143), uint8(0), randBytes(45, 0x7f), randBytes(60, 0xff))
	f.Add(uint8(7), uint8(3), uint8(143), uint8(3), []byte{5, 64, 0x09}, []byte{1, 0, 0x05, 2, 8, 0x16, 3, 0, 0x2a, 1, 0, 0x3f})
	f.Add(uint8(7), uint8(0), uint8(143), uint8(3), []byte{5, 2, 0x09}, []byte{1, 0, 0x05, 2, 8, 0x16})
	f.Fuzz(func(t *testing.T, mults, depth, geom, outK uint8, actBytes, wBytes []byte) {
		acts, ws, cfg, kh, kw, tileW, tileH, out := decodeChain(mults, depth, geom, outK, actBytes, wBytes)
		if len(acts) == 0 || len(ws) == 0 {
			return
		}
		ref := &refChain{kh: kh, kw: kw, tileW: tileW, fullW: out.W, fullH: out.H, depth: cfg.FIFODepth,
			plane: int32(out.W * out.H), bank: map[int32]int32{}}
		refOut := make([]int32, len(out.Data))
		s := NewTileScratch()
		chunks := s.startJob(acts, ws, tileW, tileH, out, cfg)
		for ci, chunk := range chunks {
			s.runChunk(chunk)
			entered, want := ref.runChunk(acts, chunk)
			if s.entered != entered || s.tally != want {
				t.Fatalf("chunk %d: kernel entered %d, %+v\nreference entered %d, %+v", ci, s.entered, s.tally, entered, want)
			}
			if !slices.Equal(s.touched, ref.touched) {
				t.Fatalf("chunk %d: touched order %v, reference %v", ci, s.touched, ref.touched)
			}
			for _, idx := range s.touched {
				if s.bank[idx] != ref.bank[idx] {
					t.Fatalf("chunk %d: bank[%d] = %d, reference %d", ci, idx, s.bank[idx], ref.bank[idx])
				}
			}
			if ci == len(chunks)-1 || chunks[ci+1][0].Shift != chunk[0].Shift {
				var scratch TileResult
				s.drainBanks(out.Data, chunk[0].Shift, &scratch.Counters)
				ref.drain(refOut, chunk[0].Shift)
			}
		}
		if !slices.Equal(out.Data, refOut) {
			t.Fatalf("drained output %v, reference %v", out.Data, refOut)
		}
	})
}

// CompareChunkPaths runs every chunk of SimulateCore's compute tiles for the
// layer through runChunk on one scratch and through the stepped loop on
// another. It returns how many chunks runChunk computed in closed form and
// how many it stepped, and an error naming the first chunk whose cycles,
// entered cycle, tally, touched order or banks differ. The golden tests,
// which build the daemon's operands, call it.
func CompareChunkPaths(f *tensor.FeatureMap, w *tensor.KernelStack, cfg CoreSimConfig) (closed, stepped int, err error) {
	cfg = cfg.withDefaults()
	_, tiles, _ := lockstepLayer(f, w, cfg)
	got, want := NewTileScratch(), NewTileScratch()
	for g, jobs := range tiles {
		for ji, j := range jobs {
			if len(j.acts) == 0 || len(j.weights) == 0 {
				continue
			}
			dst := make([]int32, len(j.full.Data))
			chunks := got.startJob(j.acts, j.weights, j.tile.W, j.tile.H, j.full, cfg.Tile)
			want.startJob(j.acts, j.weights, j.tile.W, j.tile.H, j.full, cfg.Tile)
			for ci, chunk := range chunks {
				got.runChunk(chunk)
				if want.startChunk(chunk) {
					closed++
				} else {
					stepped++
				}
				for !want.cycle() {
				}
				if got.entered != want.entered || got.tally != want.tally || !slices.Equal(got.touched, want.touched) {
					return closed, stepped, fmt.Errorf("tile %d job %d chunk %d: runChunk entered %d, %+v, touched %v\nstepped entered %d, %+v, touched %v",
						g, ji, ci, got.entered, got.tally, got.touched, want.entered, want.tally, want.touched)
				}
				for _, idx := range got.touched {
					if got.bank[idx] != want.bank[idx] {
						return closed, stepped, fmt.Errorf("tile %d job %d chunk %d: bank[%d] = %d, stepped %d", g, ji, ci, idx, got.bank[idx], want.bank[idx])
					}
				}
				if ci == len(chunks)-1 || chunks[ci+1][0].Shift != chunk[0].Shift {
					var cnt energy.Counters
					got.drainBanks(dst, 0, &cnt)
					want.drainBanks(dst, 0, &cnt)
				}
			}
		}
	}
	return closed, stepped, nil
}
