package balance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randCosts(rng *rand.Rand, n int) ([]int64, []int) {
	costs := make([]int64, n)
	watoms := make([]int, n)
	for i := range costs {
		watoms[i] = rng.Intn(500) + 1
		costs[i] = int64(rng.Intn(10000) + 1)
	}
	return costs, watoms
}

func TestCost(t *testing.T) {
	if Cost(10, 33, 32) != 20 {
		t.Fatalf("Cost(10,33,32) = %d, want 20", Cost(10, 33, 32))
	}
	if Cost(10, 32, 32) != 10 {
		t.Fatalf("Cost(10,32,32) = %d, want 10", Cost(10, 32, 32))
	}
	if Cost(0, 5, 32) != 0 || Cost(5, 0, 32) != 0 {
		t.Fatal("empty streams must cost zero")
	}
}

func TestAssignPartition(t *testing.T) {
	// Every policy must produce a partition: all channels exactly once.
	rng := rand.New(rand.NewSource(1))
	costs, watoms := randCosts(rng, 128)
	for _, p := range []Policy{None, WeightOnly, WeightAct} {
		groups := Assign(p, costs, watoms, 32)
		if len(groups) != 32 {
			t.Fatalf("%v: %d groups", p, len(groups))
		}
		seen := make([]bool, 128)
		for _, g := range groups {
			for _, c := range g {
				if seen[c] {
					t.Fatalf("%v: channel %d assigned twice", p, c)
				}
				seen[c] = true
			}
		}
		for c, s := range seen {
			if !s {
				t.Fatalf("%v: channel %d unassigned", p, c)
			}
		}
	}
}

func TestWeightActBeatsNone(t *testing.T) {
	// With skewed costs, w/a balancing must never have a worse max-group
	// cost than cyclic assignment, and typically much better.
	rng := rand.New(rand.NewSource(2))
	better := 0
	for trial := 0; trial < 50; trial++ {
		costs, watoms := randCosts(rng, 128)
		gNone := GroupCosts(Assign(None, costs, watoms, 32), costs)
		gWA := GroupCosts(Assign(WeightAct, costs, watoms, 32), costs)
		maxNone, _, _ := Spread(gNone)
		maxWA, _, _ := Spread(gWA)
		if maxWA > maxNone {
			t.Fatalf("trial %d: w/a max %d worse than none %d", trial, maxWA, maxNone)
		}
		if maxWA < maxNone {
			better++
		}
	}
	if better < 40 {
		t.Fatalf("w/a balancing strictly better in only %d/50 trials", better)
	}
}

func TestWeightActNearIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	costs, watoms := randCosts(rng, 128)
	var total int64
	for _, c := range costs {
		total += c
	}
	ideal := float64(total) / 32
	max, _, _ := Spread(GroupCosts(Assign(WeightAct, costs, watoms, 32), costs))
	if float64(max) > ideal*1.25 {
		t.Fatalf("w/a max group %d exceeds 1.25× ideal %f", max, ideal)
	}
}

func TestWeightOnlyUsesWeightMetric(t *testing.T) {
	// Costs anti-correlated with weight atoms: w balancing should be poor
	// at equalizing true costs, w/a balancing good (Figure 18 narrative).
	n := 64
	costs := make([]int64, n)
	watoms := make([]int, n)
	rng := rand.New(rand.NewSource(4))
	for i := range costs {
		watoms[i] = rng.Intn(1000) + 1
		costs[i] = int64(100000/watoms[i]) + int64(rng.Intn(50))
	}
	maxW, _, _ := Spread(GroupCosts(Assign(WeightOnly, costs, watoms, 8), costs))
	maxWA, _, _ := Spread(GroupCosts(Assign(WeightAct, costs, watoms, 8), costs))
	if maxWA >= maxW {
		t.Fatalf("w/a (%d) should beat w-only (%d) when activations matter", maxWA, maxW)
	}
}

func TestAssignPartitionProperty(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%100 + 1
		m := int(m8)%16 + 1
		costs, watoms := randCosts(rng, n)
		for _, p := range []Policy{None, WeightOnly, WeightAct} {
			groups := Assign(p, costs, watoms, m)
			cnt := 0
			for _, g := range groups {
				cnt += len(g)
			}
			if cnt != n || len(groups) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpread(t *testing.T) {
	max, min, mean := Spread([]int64{4, 8, 6})
	if max != 8 || min != 4 || mean != 6 {
		t.Fatalf("Spread = %d %d %f", max, min, mean)
	}
}

func TestPolicyString(t *testing.T) {
	if None.String() != "no balancing" || WeightOnly.String() != "w balancing" || WeightAct.String() != "w/a balancing" {
		t.Fatal("policy names changed")
	}
}

func TestParsePolicy(t *testing.T) {
	want := map[string]Policy{"wa": WeightAct, "w": WeightOnly, "none": None}
	if len(PolicyNames) != len(want) {
		t.Fatalf("PolicyNames = %v, want the %d names %v", PolicyNames, len(want), want)
	}
	for _, name := range PolicyNames {
		p, err := ParsePolicy(name)
		if err != nil || p != want[name] {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, p, err, want[name])
		}
	}
	for _, bad := range []string{"", "WA", "w/a", "w balancing"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted an unknown name", bad)
		}
	}
}

func TestCostDegenerateMultipliers(t *testing.T) {
	// Regression: zero or negative multiplier counts must cost nothing, not
	// divide by zero (reachable from DSE grids and CLI flags).
	if got := Cost(10, 20, 0); got != 0 {
		t.Fatalf("Cost(10,20,0) = %d, want 0", got)
	}
	if got := Cost(10, 20, -4); got != 0 {
		t.Fatalf("Cost(10,20,-4) = %d, want 0", got)
	}
}
