// Package balance implements the workload allocation policies of Section
// IV-E: input feature maps (channels) and their kernels are divided among the
// M compute tiles so per-tile work is as even as possible.
//
// Because CSC latency is determined by compressed stream lengths, the cost of
// a channel is known *before* computation starts: C_T = T·⌈S/N⌉ (Eq. 5),
// where T counts the channel's non-zero activation atoms and S its kernels'
// non-zero weight atoms. Ristretto's "w/a balancing" exploits exactly this;
// the baselines are cyclic assignment ("no balancing") and weight-statistics
// only ("w balancing", as SparTen does).
package balance

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Policy selects a balancing method.
type Policy int

const (
	// None allocates channels to tiles cyclically, ignoring statistics.
	None Policy = iota
	// WeightOnly groups channels greedily by weight-atom counts alone.
	WeightOnly
	// WeightAct groups channels greedily by the full Eq. 5 cost, using both
	// weight and activation statistics. This is the paper's contribution.
	WeightAct
)

func (p Policy) String() string {
	switch p {
	case None:
		return "no balancing"
	case WeightOnly:
		return "w balancing"
	case WeightAct:
		return "w/a balancing"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyNames lists the short policy names that flags and requests accept,
// in the order their help text gives them.
var PolicyNames = []string{"wa", "w", "none"}

// ParsePolicy maps a short policy name from PolicyNames to its Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "wa":
		return WeightAct, nil
	case "w":
		return WeightOnly, nil
	case "none":
		return None, nil
	}
	return 0, fmt.Errorf("balance: unknown policy %q (allowed: %s)", name, strings.Join(PolicyNames, ", "))
}

// Cost returns C_T for one channel: T·⌈S/N⌉ (Eq. 5, ε omitted as in the
// paper).
func Cost(actAtoms, weightAtoms, mults int) int64 {
	if weightAtoms <= 0 || actAtoms <= 0 || mults <= 0 {
		return 0
	}
	rounds := (weightAtoms + mults - 1) / mults
	return int64(actAtoms) * int64(rounds)
}

// Assign divides channels 0..len(costs)-1 into m groups under the policy.
// costs must be the Eq. 5 costs; watoms the per-channel weight-atom counts
// (used by WeightOnly). The returned slice has m entries, each the channel
// indices of one tile's group.
func Assign(p Policy, costs []int64, watoms []int, m int) [][]int {
	n := len(costs)
	if m <= 0 {
		panic("balance: need at least one tile")
	}
	groups := make([][]int, m)
	switch p {
	case None:
		for c := 0; c < n; c++ {
			groups[c%m] = append(groups[c%m], c)
		}
	case WeightOnly:
		metric := make([]int64, n)
		for c := range metric {
			metric[c] = int64(watoms[c])
		}
		groups = bestOf(greedyPair(metric, m), cyclic(n, m), metric)
	case WeightAct:
		groups = bestOf(greedyPair(costs, m), cyclic(n, m), costs)
	default:
		panic("balance: unknown policy")
	}
	return groups
}

func cyclic(n, m int) [][]int {
	groups := make([][]int, m)
	for c := 0; c < n; c++ {
		groups[c%m] = append(groups[c%m], c)
	}
	return groups
}

// bestOf picks the grouping with the smaller maximum metric — the offline
// scheduler can always fall back to cyclic assignment when the greedy
// pairing happens to lose on near-uniform workloads.
func bestOf(a, b [][]int, metric []int64) [][]int {
	maxA, _, _ := Spread(GroupCosts(a, metric))
	maxB, _, _ := Spread(GroupCosts(b, metric))
	if maxB < maxA {
		return b
	}
	return a
}

// greedyPair implements the paper's grouping: items are repeatedly paired
// "largest with smallest, second largest with second smallest" until only m
// groups remain. Each round sorts the items by cost, descending, with a
// stable sort, so equal costs keep their order from the round before. An
// item holds its channels as a list linked through next, so a merge
// appends one list to another without copying, and the sort moves no
// pointers.
func greedyPair(metric []int64, m int) [][]int {
	type item struct {
		cost       int64
		head, tail int // first and last channel of the item's list
	}
	next := make([]int, len(metric)) // the channel after c in its list, or -1
	items := make([]item, len(metric))
	for c, v := range metric {
		items[c] = item{cost: v, head: c, tail: c}
		next[c] = -1
	}
	for len(items) > m {
		slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(b.cost, a.cost) })
		// Pair extremes: (0, last), (1, last-1), ... halving the item count.
		k := len(items)
		pairs := k / 2
		if k-pairs < m {
			pairs = k - m // only merge down to exactly m groups
		}
		// Item i absorbs item k-1-i; the unpaired middle keeps its place.
		for i := 0; i < pairs; i++ {
			a, b := &items[i], items[k-1-i]
			next[a.tail] = b.head
			a.tail = b.tail
			a.cost += b.cost
		}
		items = items[:k-pairs]
	}
	out := make([][]int, m)
	flat := make([]int, 0, len(metric))
	for i, it := range items {
		start := len(flat)
		for c := it.head; c >= 0; c = next[c] {
			flat = append(flat, c)
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// GroupCosts returns the total cost of each group under the true (Eq. 5)
// costs — what the tile latencies will be.
func GroupCosts(groups [][]int, costs []int64) []int64 {
	out := make([]int64, len(groups))
	for g, chans := range groups {
		for _, c := range chans {
			out[g] += costs[c]
		}
	}
	return out
}

// Spread reports the max, min and mean of group costs — the imbalance metric
// Figure 18 visualizes.
func Spread(groupCosts []int64) (max, min int64, mean float64) {
	if len(groupCosts) == 0 {
		return 0, 0, 0
	}
	max, min = groupCosts[0], groupCosts[0]
	var sum int64
	for _, c := range groupCosts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
		sum += c
	}
	return max, min, float64(sum) / float64(len(groupCosts))
}
