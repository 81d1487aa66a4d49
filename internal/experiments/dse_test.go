package experiments

import "testing"

func dsePoints(t *testing.T) []DSEPoint {
	t.Helper()
	b := NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet"}
	points, err := b.DesignSpaceOpts(RunOptions{}, "AlexNet", "4b", []int{8, 32}, []int{8, 32}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestDesignSpaceCoversGrid(t *testing.T) {
	points := dsePoints(t)
	if len(points) != 2*2*3 {
		t.Fatalf("%d points, want 12", len(points))
	}
	for _, p := range points {
		if p.Cycles <= 0 || p.AreaMM2 <= 0 || p.EnergyMJ <= 0 || p.PerfPerArea <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestDesignSpaceMonotonicInResources(t *testing.T) {
	points := dsePoints(t)
	find := func(tiles, mults, gran int) DSEPoint {
		for _, p := range points {
			if p.Tiles == tiles && p.Mults == mults && p.Gran == gran {
				return p
			}
		}
		t.Fatalf("point %d/%d/%d missing", tiles, mults, gran)
		return DSEPoint{}
	}
	small := find(8, 8, 2)
	big := find(32, 32, 2)
	if big.Cycles >= small.Cycles {
		t.Fatalf("more resources must be faster: %d vs %d", big.Cycles, small.Cycles)
	}
	if big.AreaMM2 <= small.AreaMM2 {
		t.Fatal("more resources must cost area")
	}
}

func TestDesignSpaceParetoNonEmptyAndValid(t *testing.T) {
	points := dsePoints(t)
	pareto := 0
	for i, p := range points {
		if !p.Pareto {
			continue
		}
		pareto++
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Cycles <= p.Cycles && q.AreaMM2 <= p.AreaMM2 && q.EnergyMJ <= p.EnergyMJ &&
				(q.Cycles < p.Cycles || q.AreaMM2 < p.AreaMM2 || q.EnergyMJ < p.EnergyMJ) {
				t.Fatalf("point %+v marked Pareto but dominated by %+v", p, q)
			}
		}
	}
	if pareto == 0 || pareto == len(points) {
		t.Fatalf("implausible Pareto set size %d of %d", pareto, len(points))
	}
}

func TestDesignSpaceSortedByPerfPerArea(t *testing.T) {
	points := dsePoints(t)
	for i := 1; i < len(points); i++ {
		if points[i].PerfPerArea > points[i-1].PerfPerArea {
			t.Fatal("points not sorted by perf/area")
		}
	}
}

func TestDSETableAndUnknownNetwork(t *testing.T) {
	b := NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet"}
	r, err := b.DSETableOpts(RunOptions{}, "AlexNet", "4b", []int{8}, []int{8}, []int{2})
	if err != nil || len(r.Rows) != 1 {
		t.Fatalf("DSETableOpts: %v, %d rows", err, len(r.Rows))
	}
	if _, err := b.DesignSpaceOpts(RunOptions{}, "LeNet", "4b", []int{8}, []int{8}, []int{2}); err == nil {
		t.Fatal("unknown network accepted")
	}
}
