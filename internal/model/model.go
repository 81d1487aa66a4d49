// Package model encodes the convolutional layer geometry of the six ImageNet
// CNNs in the paper's benchmark (Section V-A2): AlexNet, VGG-16, GoogLeNet,
// Inception-V2, ResNet-18 and ResNet-50. Only convolution layers are listed:
// all evaluated accelerators spend their cycles there, and (like the paper,
// which omits MobileNets for the same reason) we consider standard
// convolutions only.
//
// The package also assigns per-layer precision: uniform 2/4/8-bit models and
// EdMIPS-style mixed 2/4-bit models where each layer's weight and activation
// bit-widths are chosen independently from {2,4} (deterministically seeded,
// standing in for the learned bit allocation we cannot reproduce without
// training).
package model

import "fmt"

// Layer describes one convolution layer.
type Layer struct {
	Name   string
	C      int // input channels
	H, W   int // input spatial size
	K      int // output channels
	KH, KW int // kernel size
	Stride int
	Pad    int
}

// OutH returns the output feature-map height.
func (l Layer) OutH() int { return (l.H+2*l.Pad-l.KH)/l.Stride + 1 }

// OutW returns the output feature-map width.
func (l Layer) OutW() int { return (l.W+2*l.Pad-l.KW)/l.Stride + 1 }

// MACs returns the multiply-accumulate count of the layer.
func (l Layer) MACs() int64 {
	return int64(l.K) * int64(l.C) * int64(l.KH) * int64(l.KW) * int64(l.OutH()) * int64(l.OutW())
}

// Weights returns the number of weight values.
func (l Layer) Weights() int64 {
	return int64(l.K) * int64(l.C) * int64(l.KH) * int64(l.KW)
}

// Activations returns the number of input activation values.
func (l Layer) Activations() int64 {
	return int64(l.C) * int64(l.H) * int64(l.W)
}

func (l Layer) String() string {
	return fmt.Sprintf("%s: %dx%dx%d -> %d @%dx%d/s%d p%d", l.Name, l.C, l.H, l.W, l.K, l.KH, l.KW, l.Stride, l.Pad)
}

// Network is an ordered list of convolution layers.
type Network struct {
	Name   string
	Layers []Layer
}

// MACs returns the total multiply-accumulate count of the network.
func (n *Network) MACs() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.MACs()
	}
	return t
}

// Layer returns the layer with the given name, or an error.
func (n *Network) Layer(name string) (Layer, error) {
	for _, l := range n.Layers {
		if l.Name == name {
			return l, nil
		}
	}
	return Layer{}, fmt.Errorf("model: network %s has no layer %q", n.Name, name)
}

// Benchmark returns the six networks of the paper's DNN benchmark.
func Benchmark() []*Network {
	return []*Network{
		AlexNet(), VGG16(), GoogLeNet(), InceptionV2(), ResNet18(), ResNet50(),
	}
}

// ByName returns a benchmark network by name.
func ByName(name string) (*Network, error) {
	for _, n := range Benchmark() {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("model: unknown network %q", name)
}

// Precision is a per-layer (weight, activation) bit-width assignment.
type Precision struct {
	WBits []int
	ABits []int
}

// Uniform returns an all-layers precision assignment at the given bit-width.
func Uniform(n *Network, bits int) Precision {
	p := Precision{WBits: make([]int, len(n.Layers)), ABits: make([]int, len(n.Layers))}
	for i := range n.Layers {
		p.WBits[i], p.ABits[i] = bits, bits
	}
	return p
}

// Mixed24 returns an EdMIPS-style mixed-precision assignment: each layer's
// weight and activation bit-widths are drawn independently from {2,4} using a
// deterministic hash of the network name, layer index and a seed, standing in
// for the differentiable search the paper runs. First layers keep 4 bits on
// both sides, mirroring the common practice of protecting input stems.
func Mixed24(n *Network, seed uint64) Precision {
	p := Precision{WBits: make([]int, len(n.Layers)), ABits: make([]int, len(n.Layers))}
	for i := range n.Layers {
		if i == 0 {
			p.WBits[i], p.ABits[i] = 4, 4
			continue
		}
		h := SplitMix(seed ^ Hash(n.Name) ^ uint64(i)*0x9e3779b97f4a7c15)
		p.WBits[i] = 2 + 2*int(h&1)
		p.ABits[i] = 2 + 2*int((h>>1)&1)
	}
	return p
}

// Hash is the label hash that every derived seed (workload.DeriveSeed),
// each network's evaluation targets and Mixed24 assignment, and Figure 1's
// per-layer jitter are computed from: FNV-1a's loop and prime, but with
// the offset basis 1469598103934665603, one digit short of FNV-1a's
// 14695981039346656037. It is not FNV-1a, and the constant stays as it
// is, since every output of the suite depends on it.
func Hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SplitMix is the splitmix64 finalizer: a bijective mix of x in which
// every input bit affects every output bit.
func SplitMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
