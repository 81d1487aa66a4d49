package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// oracleCompressWeights is the pre-optimization map-based implementation of
// CompressWeights, kept verbatim as the ordering oracle: the counting-sort
// rewrite must emit a byte-identical stream (chunking, and therefore every
// simulated cycle count, depends on the order).
func oracleCompressWeights(elems []WeightElem, bits int, n atom.Granularity, dense bool) []WeightAtom {
	slices := n.Count(bits - 1)
	bySlice := make([][]WeightAtom, slices)
	for _, e := range elems {
		var atoms []atom.Atom
		if dense {
			atoms = atom.DecomposeDense(e.Val, bits-1, n)
		} else {
			atoms = atom.Decompose(e.Val, bits-1, n)
		}
		for _, a := range atoms {
			s := int(a.Shift) / int(n)
			bySlice[s] = append(bySlice[s], WeightAtom{
				Mag: a.Mag, Shift: a.Shift, Sign: a.Sign, X: e.X, Y: e.Y, K: e.K,
			})
		}
	}
	var out []WeightAtom
	for _, s := range bySlice {
		byChan := map[uint16][]WeightAtom{}
		var order []uint16
		for _, a := range s {
			if _, ok := byChan[a.K]; !ok {
				order = append(order, a.K)
			}
			byChan[a.K] = append(byChan[a.K], a)
		}
		for i := 0; ; i++ {
			emitted := false
			for _, k := range order {
				if i < len(byChan[k]) {
					out = append(out, byChan[k][i])
					emitted = true
				}
			}
			if !emitted {
				break
			}
		}
	}
	return out
}

// TestCompressWeightsMatchesOracle also runs every case through one shared
// WeightStreamer, whose reused temporaries grow and shrink across the
// cases, and requires its streams to equal CompressWeights'.
func TestCompressWeightsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var ws WeightStreamer
	for i := 0; i < 40; i++ {
		gran := atom.Granularity(rng.Intn(3) + 1)
		bits := []int{2, 4, 8}[rng.Intn(3)]
		k := 1 + rng.Intn(20)
		ks := 1 + 2*rng.Intn(2)
		g := workload.NewGen(int64(500 + i))
		w := g.KernelsExact(k, 2, ks, ks, bits, gran, 0.3+rng.Float64()*0.7, 0.7)
		for c := 0; c < 2; c++ {
			for _, dense := range []bool{false, true} {
				var elems []WeightElem
				if dense {
					elems = FlattenKernelsDense(w, c, nil)
				} else {
					elems = FlattenKernels(w, c, nil)
				}
				got := CompressWeights(elems, bits, gran, dense)
				want := oracleCompressWeights(elems, bits, gran, dense)
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("iter %d c=%d dense=%v: stream order diverged from oracle\n got %v\nwant %v",
						i, c, dense, got, want)
				}
				if reused := ws.AppendStream(nil, w, c, gran, dense); !reflect.DeepEqual(reused, got) {
					t.Fatalf("iter %d c=%d dense=%v: reused WeightStreamer diverged from CompressWeights\n got %v\nwant %v",
						i, c, dense, reused, got)
				}
			}
		}
	}
}

func TestStreamTileActsMatchesCompressActs(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for i := 0; i < 40; i++ {
		gran := atom.Granularity(rng.Intn(3) + 1)
		bits := []int{2, 4, 8}[rng.Intn(3)]
		g := workload.NewGen(int64(600 + i))
		c, h, w := 1+rng.Intn(3), 2+rng.Intn(14), 2+rng.Intn(14)
		f := g.FeatureMapExact(c, h, w, bits, gran, 0.2+rng.Float64()*0.8, 0.7)
		tw, th := 1+rng.Intn(w), 1+rng.Intn(h)
		for _, tl := range tensor.TileGrid(w, h, tw, th) {
			for ch := 0; ch < c; ch++ {
				got := StreamTileActs(f, ch, tl, gran)
				want := CompressActs(FlattenTile(f, ch, tl), bits, gran, false)
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("iter %d ch=%d tile %+v: fused stream diverged\n got %v\nwant %v",
						i, ch, tl, got, want)
				}
			}
		}
	}
}

func TestStreamTileActsAllZero(t *testing.T) {
	f := tensor.NewFeatureMap(1, 8, 8, 8)
	got := StreamTileActs(f, 0, tensor.Tile{W: 8, H: 8}, 2)
	if len(got) != 0 {
		t.Fatalf("all-zero plane produced %d atoms", len(got))
	}
}

// TestStreamMatchesCompressWeights checks WeightStreamer.AppendStream,
// which builds its masks from the kernel directly, against CompressWeights
// over the flattened kernel and against the map-based oracle, on random
// kernels: 2–12-bit weights (from 10 bits on, magnitudes beyond the 8-bit
// digit table), atoms of 1–3 bits, dense and sparse streams, 1–130 output
// channels (so past 64) and 1×1 to 11×11 windows (from 9×9 on, more than
// one 64-bit mask word per channel and slice). One streamer serves every
// case, so its temporaries grow and shrink between them.
func TestStreamMatchesCompressWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	var ws WeightStreamer
	for i := 0; i < 300; i++ {
		bits := 2 + rng.Intn(11)
		gran := atom.Granularity(1 + rng.Intn(3))
		k := 1 + rng.Intn(130)
		ks := 1 + 2*rng.Intn(6)
		w := tensor.NewKernelStack(k, 3, ks, ks, bits)
		limit := int32(1)<<(bits-1) - 1
		density := rng.Float64()
		for j := range w.Data {
			if rng.Float64() < density {
				w.Data[j] = rng.Int31n(2*limit+1) - limit
			}
		}
		c := rng.Intn(3)
		for _, dense := range []bool{false, true} {
			flat := FlattenKernels(w, c, nil)
			if dense {
				flat = FlattenKernelsDense(w, c, nil)
			}
			want := CompressWeights(flat, bits, gran, dense)
			if oracle := oracleCompressWeights(flat, bits, gran, dense); !reflect.DeepEqual(want, oracle) && len(want)+len(oracle) > 0 {
				t.Fatalf("case %d (bits %d, gran %d, K %d, %dx%d, dense %v): CompressWeights diverged from the oracle", i, bits, gran, k, ks, ks, dense)
			}
			if got := ws.AppendStream(nil, w, c, gran, dense); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d (bits %d, gran %d, K %d, %dx%d, dense %v): AppendStream diverged from CompressWeights\n got %v\nwant %v", i, bits, gran, k, ks, ks, dense, got, want)
			}
		}
	}
}

// FuzzWeightStream checks WeightStreamer.AppendStream, and CompressWeights
// over the flattened kernel, against the map-based oracle on kernels the
// fuzzer shapes: up to 300 output channels, windows up to 11×11 (square or
// not), 2–12-bit weights, atoms of 1–3 bits, dense and sparse streams, at
// any weight density. One streamer serves every input, so its temporaries
// grow and shrink between them.
func FuzzWeightStream(f *testing.F) {
	f.Add(uint16(63), uint8(2), uint8(2), uint8(2), uint8(1), false, uint8(128), int64(1))
	f.Add(uint16(299), uint8(10), uint8(10), uint8(10), uint8(0), true, uint8(255), int64(2))
	f.Add(uint16(0), uint8(0), uint8(10), uint8(0), uint8(2), false, uint8(10), int64(3))
	f.Add(uint16(129), uint8(8), uint8(7), uint8(6), uint8(1), false, uint8(200), int64(4))
	f.Add(uint16(40), uint8(10), uint8(6), uint8(9), uint8(1), false, uint8(30), int64(5))
	var ws WeightStreamer
	f.Fuzz(func(t *testing.T, k uint16, kw, kh, bits, gran uint8, dense bool, density uint8, seed int64) {
		K, KW, KH := 1+int(k)%300, 1+int(kw)%11, 1+int(kh)%11
		b, n := 2+int(bits)%11, atom.Granularity(1+int(gran)%3)
		w := tensor.NewKernelStack(K, 2, KH, KW, b)
		rng := rand.New(rand.NewSource(seed))
		limit := int32(1)<<(b-1) - 1
		for j := range w.Data {
			if rng.Intn(256) < int(density) {
				w.Data[j] = rng.Int31n(2*limit+1) - limit
			}
		}
		c := int(seed & 1)
		flat := FlattenKernels(w, c, nil)
		if dense {
			flat = FlattenKernelsDense(w, c, nil)
		}
		want := oracleCompressWeights(flat, b, n, dense)
		if got := ws.AppendStream(nil, w, c, n, dense); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("K %d, %dx%d, %d bits, gran %d, dense %v: AppendStream diverged from the oracle\n got %v\nwant %v", K, KW, KH, b, n, dense, got, want)
		}
		if got := CompressWeights(flat, b, n, dense); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("K %d, %dx%d, %d bits, gran %d, dense %v: CompressWeights diverged from the oracle\n got %v\nwant %v", K, KW, KH, b, n, dense, got, want)
		}
	})
}

// TestAppendStreamAllocs requires a warmed streamer to build one input
// channel's stream of a 64-filter 3×3 stack into a buffer with room
// without allocating: sparse and dense, at 4, 8 and 12 bits (12-bit
// magnitudes lie beyond the 8-bit digit table).
func TestAppendStreamAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, bits := range []int{4, 8, 12} {
		w := tensor.NewKernelStack(64, 2, 3, 3, bits)
		limit := int32(1)<<(bits-1) - 1
		for j := range w.Data {
			if rng.Intn(2) == 0 {
				w.Data[j] = rng.Int31n(2*limit+1) - limit
			}
		}
		for _, dense := range []bool{false, true} {
			var ws WeightStreamer
			buf := ws.AppendStream(nil, w, 1, 2, dense)
			if allocs := testing.AllocsPerRun(20, func() { buf = ws.AppendStream(buf[:0], w, 1, 2, dense) }); allocs != 0 {
				t.Errorf("%d bits, dense %v: AppendStream allocated %v times per stream, want 0", bits, dense, allocs)
			}
		}
	}
}

// TestWeightStreamRejectsOutOfRange requires a weight whose magnitude does
// not fit in the stream's magnitude bits, and any stream wider than the 16
// bits a packed weight holds (whose top slices' digits would land on the
// window coordinates, as a 17-bit stream's do at granularity 3 even for a
// weight of 1), to panic rather than build a wrong stream; a dense stream
// that leaves window positions out panics too. A 16-bit stream of the
// widest magnitudes off the window's origin must match the oracle.
func TestWeightStreamRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		bits  int
		gran  atom.Granularity
		dense bool
		elems []WeightElem
	}{
		{4, 2, false, []WeightElem{{Val: 8}}},
		{4, 2, false, []WeightElem{{Val: -8}}},
		{17, 3, false, []WeightElem{{Val: 1, X: 2}}},
		{20, 2, false, []WeightElem{{Val: 1}}},
		{4, 2, true, []WeightElem{{Val: 1}, {Val: 2, X: 2}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-bit stream, granularity %d, dense %v of %v: no panic", c.bits, c.gran, c.dense, c.elems)
				}
			}()
			CompressWeights(c.elems, c.bits, c.gran, c.dense)
		}()
	}
	elems := []WeightElem{{Val: 1<<15 - 1, X: 2}, {Val: -(1<<15 - 1), X: 3, Y: 1, K: 1}}
	for gran := atom.Granularity(1); gran <= 3; gran++ {
		if got, want := CompressWeights(elems, 16, gran, false), oracleCompressWeights(elems, 16, gran, false); !reflect.DeepEqual(got, want) {
			t.Errorf("16-bit stream, granularity %d: CompressWeights diverged from the oracle\n got %v\nwant %v", gran, got, want)
		}
	}
}
