package ristretto

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ristretto/internal/runner"
)

// TestFanOutRunsEveryItemOnce checks that every item runs exactly once and
// that no more workers (scratches) take part than GOMAXPROCS allows or
// items need.
func TestFanOutRunsEveryItemOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			runs := make([]atomic.Int32, n)
			var mu sync.Mutex
			scratches := map[*TileScratch]bool{}
			fanOut(n, func(s *TileScratch, i int) {
				runs[i].Add(1)
				mu.Lock()
				scratches[s] = true
				mu.Unlock()
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: item %d ran %d times", procs, n, i, got)
				}
			}
			if w := len(scratches); w > min(n, procs) {
				t.Fatalf("GOMAXPROCS %d, n %d: %d workers", procs, n, w)
			}
		}
	}
}

// TestFanOutPanicReachesCaller checks that a worker's panic is re-raised on
// the caller's goroutine, so the runner's per-cell recover records a
// CellError — what makes /v1/sim answer 500 — instead of the unrecovered
// panic killing the process.
func TestFanOutPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := runner.MapCfg(context.Background(), runner.Serial(), runner.Cfg{}, 1, func(int) (struct{}, error) {
			fanOut(64, func(_ *TileScratch, i int) {
				if i == 37 {
					panic("tile 37 failed")
				}
			})
			return struct{}{}, nil
		})
		ces := runner.AsCellErrors(err)
		if len(ces) != 1 || ces[0].Stack == nil || !strings.Contains(ces[0].Error(), "tile 37 failed") {
			t.Fatalf("GOMAXPROCS %d: want one recovered-panic CellError naming the worker's panic, got %v", procs, err)
		}
	}
}
