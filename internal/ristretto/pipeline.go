package ristretto

import (
	"ristretto/internal/core"
	"ristretto/internal/tensor"
)

// PipelineLayer is one stage of an end-to-end CSC inference: a kernel stack
// plus convolution geometry and the post-processing applied to its outputs.
type PipelineLayer struct {
	Kernels     *tensor.KernelStack
	Stride, Pad int
	Post        PostProcessor
}

// PipelineResult reports an end-to-end run.
type PipelineResult struct {
	Output    *tensor.FeatureMap // final post-processed activations
	Stats     []core.Stats       // per-layer CSC statistics
	AtomStats [][]int            // per-layer per-output-channel atom counts (PPU scan)
}

// RunPipeline chains layers through condensed streaming computation: each
// layer's CSC output feeds the post-processing unit (ReLU + requantization +
// compression + atom statistics), whose feature map becomes the next layer's
// input — the full on-chip loop of Figure 7. The numeric path is identical
// to running each layer densely and post-processing the same way, which the
// tests verify.
func RunPipeline(input *tensor.FeatureMap, layers []PipelineLayer, cfg core.Config) PipelineResult {
	var res PipelineResult
	cur := input
	for _, l := range layers {
		out, st := core.Convolve(cur, l.Kernels, l.Stride, l.Pad, cfg)
		fm, counts := l.Post.Run(out)
		res.Stats = append(res.Stats, st)
		res.AtomStats = append(res.AtomStats, counts)
		res.Output, cur = fm, fm
	}
	return res
}
