package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=7,panic=0.1,transient=0.2:2,delay=0.05:10ms,kill-after=5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, Panic: 0.1, Transient: 0.2, TransientAttempts: 2, DelayProb: 0.05, Delay: 10 * time.Millisecond, KillAfter: 5}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if spec.Zero() {
		t.Fatal("non-empty spec reported Zero")
	}
	empty, err := ParseSpec("")
	if err != nil || !empty.Zero() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{
		"panic", "panic=2", "panic=-0.1", "seed=x", "transient=0.5:0",
		"delay=0.5", "delay=0.5:-1s", "kill-after=0", "bogus=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Panic: 0.3, Transient: 0.4, TransientAttempts: 1}
	outcome := func(s *Schedule, cell int) (out string) {
		defer func() {
			if recover() != nil {
				out = "panic"
			}
		}()
		if err := s.inject(cell, 0); err != nil {
			return "transient"
		}
		return "ok"
	}
	a, b := New(spec), New(spec)
	var sawPanic, sawTransient, sawOK bool
	for cell := 0; cell < 200; cell++ {
		oa := outcome(a, cell)
		ob := outcome(b, cell)
		if oa != ob {
			t.Fatalf("cell %d: schedule A says %s, B says %s", cell, oa, ob)
		}
		switch oa {
		case "panic":
			sawPanic = true
		case "transient":
			sawTransient = true
		case "ok":
			sawOK = true
		}
	}
	if !sawPanic || !sawTransient || !sawOK {
		t.Fatalf("200 cells exercised panic=%v transient=%v ok=%v; probabilities broken", sawPanic, sawTransient, sawOK)
	}
}

func TestScheduleIndependentOfOrder(t *testing.T) {
	// Concurrent, shuffled evaluation must give the same per-cell decision
	// as serial evaluation: decisions hash (seed, kind, cell) only.
	spec := Spec{Seed: 9, Transient: 0.5}
	serial := New(spec)
	want := make([]bool, 100)
	for c := range want {
		want[c] = serial.inject(c, 0) != nil
	}
	conc := New(spec)
	got := make([]bool, 100)
	var wg sync.WaitGroup
	for c := 0; c < 100; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = conc.inject(c, 0) != nil
		}()
	}
	wg.Wait()
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("cell %d: concurrent decision %v, serial %v", c, got[c], want[c])
		}
	}
}

func TestTransientAttemptsAndRetrySuccess(t *testing.T) {
	spec := Spec{Seed: 3, Transient: 1, TransientAttempts: 2}
	s := New(spec)
	for attempt := 0; attempt < 4; attempt++ {
		err := s.inject(5, attempt)
		if attempt < 2 {
			if !IsTransient(err) {
				t.Fatalf("attempt %d: err = %v, want transient", attempt, err)
			}
		} else if err != nil {
			t.Fatalf("attempt %d: err = %v, want success after transients", attempt, err)
		}
	}
	if !errors.Is(s.inject(5, 0), ErrTransient) {
		t.Fatal("IsTransient/errors.Is disagree")
	}
}

func TestKillAfterFiresOnce(t *testing.T) {
	spec := Spec{Seed: 1, KillAfter: 10, Transient: 0.0001}
	s := New(spec)
	var fired int
	s.OnKill(func() { fired++ })
	for i := 0; i < 50; i++ {
		s.inject(i, 0)
	}
	if fired != 1 {
		t.Fatalf("kill fired %d times, want exactly once", fired)
	}
	if n := s.entered.Load(); n != 50 {
		t.Fatalf("entered = %d, want 50", n)
	}
}

func TestZeroSpecHasNilHook(t *testing.T) {
	if New(Spec{Seed: 5}).Hook() != nil {
		t.Fatal("zero spec should yield nil hook")
	}
	if New(Spec{Transient: 0.5}).Hook() == nil {
		t.Fatal("non-zero spec should yield a hook")
	}
}
