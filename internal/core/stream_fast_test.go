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

// TestStreamMatchesCompressWeights checks the one-pass kernel walk of
// WeightStreamer.AppendStream against CompressWeights over the flattened
// kernel and against the map-based oracle, on random kernels: 2–12-bit weights
// (from 10 bits on, magnitudes beyond the 8-bit digit table), atoms of 1–3
// bits, dense and sparse streams, 1–130 output channels (so past 64) and
// 1×1 to 5×5 windows. One streamer serves every case, so its temporaries
// grow and shrink between them.
func TestStreamMatchesCompressWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	var ws WeightStreamer
	for i := 0; i < 300; i++ {
		bits := 2 + rng.Intn(11)
		gran := atom.Granularity(1 + rng.Intn(3))
		k := 1 + rng.Intn(130)
		ks := 1 + 2*rng.Intn(3)
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
