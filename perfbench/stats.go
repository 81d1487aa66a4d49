package main

import (
	"fmt"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, in
// thousandths: p50, p90, p99, p99.9.
var tailLadder = []int{500, 900, 990, 999}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the permille percentile
// among n samples: ceil(pm·n/1000), computed in integers so p99 of 1000
// samples is exactly rank 990.
func rank(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailStat is a tail latency together with the rule that picked it.
type tailStat struct {
	Permille int     `json:"permille"` // 1000 = the maximum (too few samples for any ladder rung)
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"beyond"`
}

func (t tailStat) String() string {
	if t.Permille == 1000 {
		return fmt.Sprintf("max=%.4g (n=%d, too few for p50 with %d beyond)", t.Value, t.Samples, minBeyond)
	}
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", float64(t.Permille)/10, t.Value, t.Samples, t.Beyond)
}

// tail applies the benchmark's percentile rule: the highest ladder
// percentile that still has at least minBeyond samples beyond it, reported
// with the sample count. With too few samples for any rung the maximum is
// reported instead. xs is not modified.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Permille: 1000}
	}
	s := sorted(xs)
	out := tailStat{Permille: 1000, Value: s[n-1], Samples: n}
	for _, pm := range tailLadder {
		r := rank(pm, n)
		if n-r < minBeyond {
			break
		}
		out = tailStat{Permille: pm, Value: s[r-1], Samples: n, Beyond: n - r}
	}
	return out
}

// median returns the middle sample (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
