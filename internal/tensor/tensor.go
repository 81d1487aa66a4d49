// Package tensor provides the small integer tensors used throughout the
// Ristretto reproduction: activation feature maps (C×H×W, unsigned values
// post-ReLU) and convolution kernel stacks (K×C×k×k, signed values).
//
// Values are stored as int32 so that both quantized operands (2–8 bit) and
// partial sums fit without overflow; the quantized bit-width travels with the
// tensor so downstream code (atomization, compression, simulators) knows how
// many atoms a value may contain.
package tensor

import "fmt"

// FeatureMap is a C×H×W activation tensor. Values are unsigned (post-ReLU)
// and bounded by Bits, i.e. 0 <= v < 1<<Bits.
type FeatureMap struct {
	C, H, W int
	Bits    int
	Data    []int32 // len C*H*W, channel-major (c, y, x)
}

// NewFeatureMap allocates a zeroed C×H×W feature map quantized to bits.
func NewFeatureMap(c, h, w, bits int) *FeatureMap {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid feature map shape %dx%dx%d", c, h, w))
	}
	checkBits(bits)
	return &FeatureMap{C: c, H: h, W: w, Bits: bits, Data: make([]int32, c*h*w)}
}

// At returns the activation at channel c, row y, column x.
func (f *FeatureMap) At(c, y, x int) int32 { return f.Data[(c*f.H+y)*f.W+x] }

// Set stores v at channel c, row y, column x after validating its range.
func (f *FeatureMap) Set(c, y, x int, v int32) {
	if v < 0 || v >= 1<<f.Bits {
		panic(fmt.Sprintf("tensor: activation %d out of range for %d bits", v, f.Bits))
	}
	f.Data[(c*f.H+y)*f.W+x] = v
}

// Channel returns the H*W slice backing channel c (shared storage).
func (f *FeatureMap) Channel(c int) []int32 {
	return f.Data[c*f.H*f.W : (c+1)*f.H*f.W]
}

// Len returns the number of elements.
func (f *FeatureMap) Len() int { return len(f.Data) }

// Clone returns a deep copy.
func (f *FeatureMap) Clone() *FeatureMap {
	g := *f
	g.Data = append([]int32(nil), f.Data...)
	return &g
}

// Density returns the fraction of non-zero values.
func (f *FeatureMap) Density() float64 { return density(f.Data) }

// NonZero returns the number of non-zero values.
func (f *FeatureMap) NonZero() int { return nonZero(f.Data) }

// String implements fmt.Stringer with a compact shape/stat summary.
func (f *FeatureMap) String() string {
	return fmt.Sprintf("FeatureMap(%dx%dx%d, %db, density=%.3f)", f.C, f.H, f.W, f.Bits, f.Density())
}

// KernelStack is a K×C×k×k weight tensor. Values are signed and bounded by
// Bits, i.e. -(1<<(Bits-1)) < v < 1<<(Bits-1). Note the magnitude bound is
// symmetric: the most negative two's-complement code is excluded so every
// weight has a (Bits-1)-bit magnitude, matching sign-magnitude atomization.
type KernelStack struct {
	K, C, KH, KW int
	Bits         int
	Data         []int32 // len K*C*KH*KW, (k, c, y, x)
}

// NewKernelStack allocates a zeroed K×C×kh×kw kernel stack quantized to bits.
func NewKernelStack(k, c, kh, kw, bits int) *KernelStack {
	if k <= 0 || c <= 0 || kh <= 0 || kw <= 0 {
		panic(fmt.Sprintf("tensor: invalid kernel shape %dx%dx%dx%d", k, c, kh, kw))
	}
	checkBits(bits)
	return &KernelStack{K: k, C: c, KH: kh, KW: kw, Bits: bits, Data: make([]int32, k*c*kh*kw)}
}

// At returns the weight for output channel k, input channel c, offset (y,x).
func (w *KernelStack) At(k, c, y, x int) int32 {
	return w.Data[((k*w.C+c)*w.KH+y)*w.KW+x]
}

// Set stores v for output channel k, input channel c, offset (y,x).
func (w *KernelStack) Set(k, c, y, x int, v int32) {
	limit := int32(1) << (w.Bits - 1)
	if v <= -limit || v >= limit {
		panic(fmt.Sprintf("tensor: weight %d out of range for %d bits", v, w.Bits))
	}
	w.Data[((k*w.C+c)*w.KH+y)*w.KW+x] = v
}

// Kernel returns the C*KH*KW slice backing output channel k (shared storage).
func (w *KernelStack) Kernel(k int) []int32 {
	n := w.C * w.KH * w.KW
	return w.Data[k*n : (k+1)*n]
}

// Len returns the number of elements.
func (w *KernelStack) Len() int { return len(w.Data) }

// Clone returns a deep copy.
func (w *KernelStack) Clone() *KernelStack {
	g := *w
	g.Data = append([]int32(nil), w.Data...)
	return &g
}

// Density returns the fraction of non-zero values.
func (w *KernelStack) Density() float64 { return density(w.Data) }

// NonZero returns the number of non-zero values.
func (w *KernelStack) NonZero() int { return nonZero(w.Data) }

// String implements fmt.Stringer with a compact shape/stat summary.
func (w *KernelStack) String() string {
	return fmt.Sprintf("KernelStack(%dx%dx%dx%d, %db, density=%.3f)", w.K, w.C, w.KH, w.KW, w.Bits, w.Density())
}

// OutputMap is a K×H×W partial-sum tensor (int32 accumulators).
type OutputMap struct {
	K, H, W int
	Data    []int32
}

// NewOutputMap allocates a zeroed K×H×W output accumulator.
func NewOutputMap(k, h, w int) *OutputMap {
	return &OutputMap{K: k, H: h, W: w, Data: make([]int32, k*h*w)}
}

// At returns the accumulator at output channel k, row y, column x.
func (o *OutputMap) At(k, y, x int) int32 { return o.Data[(k*o.H+y)*o.W+x] }

// Add accumulates v into output channel k, row y, column x.
func (o *OutputMap) Add(k, y, x int, v int32) { o.Data[(k*o.H+y)*o.W+x] += v }

// Set stores v at output channel k, row y, column x.
func (o *OutputMap) Set(k, y, x int, v int32) { o.Data[(k*o.H+y)*o.W+x] = v }

// Equal reports whether two output maps have identical shape and contents.
func (o *OutputMap) Equal(p *OutputMap) bool {
	if o.K != p.K || o.H != p.H || o.W != p.W {
		return false
	}
	for i, v := range o.Data {
		if v != p.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element difference between two
// same-shaped output maps; useful in tests for diagnosing mismatches.
func (o *OutputMap) MaxAbsDiff(p *OutputMap) int32 {
	var m int32
	for i, v := range o.Data {
		d := v - p.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func checkBits(bits int) {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("tensor: unsupported bit-width %d", bits))
	}
}

func density(data []int32) float64 {
	if len(data) == 0 {
		return 0
	}
	return float64(nonZero(data)) / float64(len(data))
}

func nonZero(data []int32) int {
	n := 0
	for _, v := range data {
		if v != 0 {
			n++
		}
	}
	return n
}
