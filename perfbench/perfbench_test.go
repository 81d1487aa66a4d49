package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its setup probes (they re-execute os.Executable()).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--probe" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n        int
		permille int
		value    float64
		beyond   int
	}{
		{0, 1000, 0, 0},
		{1, 1000, 1, 0},
		{19, 1000, 19, 0},     // p50 would leave only 9 beyond
		{20, 500, 10, 10},     // p50: rank 10, ten beyond
		{99, 500, 50, 49},     // p90 would leave 9 beyond
		{100, 900, 90, 10},    // p90 exactly ten beyond
		{999, 900, 900, 99},   // p99 would leave 9 beyond
		{1000, 990, 990, 10},  // p99 exactly ten beyond
		{9999, 990, 9900, 99}, // p99.9 would leave 9 beyond
		{10000, 999, 9990, 10},
	} {
		got := tail(seq(c.n))
		want := tailStat{Permille: c.permille, Value: c.value, Samples: c.n, Beyond: c.beyond}
		if got != want {
			t.Errorf("tail of %d samples = %+v, want %+v", c.n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestInputSet(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(-20); seed <= 20; seed++ {
		s := inputSet(seed)
		if s < 1 || s > inputSets {
			t.Fatalf("inputSet(%d) = %d, outside 1..%d", seed, s, inputSets)
		}
		if inputSet(seed+inputSets) != s {
			t.Errorf("inputSet is not periodic at seed %d", seed)
		}
		seen[s] = true
	}
	if len(seen) != inputSets {
		t.Errorf("seeds reach %d input sets, want %d", len(seen), inputSets)
	}
}

// TestRequestSequencesDeterministic: the same seed gives the same request
// sequence; another seed reorders the same requests.
func TestRequestSequencesDeterministic(t *testing.T) {
	sz := sizes["full"]
	f1, s1 := simRequests(sz, 3, 11)
	f2, s2 := simRequests(sz, 3, 11)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("sim requests differ for one seed")
	}
	f3, s3 := simRequests(sz, 3, 12)
	if reflect.DeepEqual(s1, s3) {
		t.Error("another seed left the sim sibling order unchanged")
	}
	if !sameSet(f1, f3) || !sameSet(s1, s3) {
		t.Error("another seed changed which sim requests are sent")
	}
	all := map[string]bool{}
	for _, q := range append(f1, s1...) {
		if all[simKey(q)] {
			t.Errorf("sim request %s sent twice; coalescing could merge it", simKey(q))
		}
		all[simKey(q)] = true
	}

	c1, m1 := modelRequests(sz, 3, 11)
	c2, m2 := modelRequests(sz, 3, 11)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("model requests differ for one seed")
	}
	if len(c1) != 12 || len(m1) != 48 {
		t.Errorf("model phases have %d cold and %d sibling requests, want 12 and 48", len(c1), len(m1))
	}
}

func sameSet[T any](a, b []T) bool {
	key := func(xs []T) []string {
		var out []string
		for _, x := range xs {
			out = append(out, fmt.Sprint(x))
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(a), key(b))
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "a", StartUS: 30, EndUS: 50}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "leaf", StartUS: 20, EndUS: 25},
	}}
	self, count := tr.selfTimes()
	want := map[string]float64{"root": 0.06, "a": 0.025 + 0.02, "leaf": 0.005}
	for k, v := range want {
		if d := self[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", k, self[k], v)
		}
	}
	if count["a"] != 2 {
		t.Errorf("span count of a = %d, want 2", count["a"])
	}
}

// TestSmoke runs every workload at the tiny size, untraced and traced, and
// requires a correct result line with every metric and no failed
// operation; the output check is part of each run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"suite", "model-serve", "sim-serve"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl+"/trace"+traced, func(t *testing.T) {
				work := t.TempDir()
				var out, errb bytes.Buffer
				code := realMain([]string{"--workload", wl, "--seed", "5", "--seconds", "0", "--trace", traced,
					"--size", "tiny", "--work", work}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, errb.String())
				}
				names := endToEnd
				if traced == "1" {
					names = perLayer
					if _, err := os.Stat(filepath.Join(work, "traces", wl+"-seed5.json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(names))
				}
				for _, m := range names {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestDigestMismatchFails: an output that differs from the recorded
// digest makes the run incorrect.
func TestDigestMismatchFails(t *testing.T) {
	r := &run{workload: "suite", sizeName: "tiny", set: 1}
	r.checkDigest([]byte("not the suite's tables"))
	if len(r.problems) != 1 {
		t.Fatalf("problems = %v, want one digest mismatch", r.problems)
	}
}
