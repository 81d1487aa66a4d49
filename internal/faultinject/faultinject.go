// Package faultinject builds seed-deterministic fault schedules for the
// experiment harness's chaos tests and the -fault CLI flag. A Schedule
// decides per (cell, fault-kind) from its own seed — never from wall-clock
// time or scheduling order — so the same spec injects the same panics,
// delays and transient errors into the same cells regardless of worker
// count, which is what lets a chaos run be compared bit-for-bit against a
// golden no-fault run after recovery.
//
// The schedule plugs into internal/runner through the build-tag-free
// runtime hook runner.Cfg.Fault; with a nil hook the runner pays nothing.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrTransient is the error injected for transient faults. It is the
// canonical "retry me" error: runner configs created from a Spec treat
// exactly this as retryable.
var ErrTransient = errors.New("faultinject: injected transient error")

// IsTransient reports whether err is (or wraps) an injected transient
// fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Spec describes a deterministic fault schedule. Probabilities are per
// cell in [0,1]; a fault of each kind either always or never fires for a
// given cell, decided by hashing (Seed, kind, cell).
type Spec struct {
	// Seed drives every injection decision. Distinct seeds give distinct
	// (but individually deterministic) schedules.
	Seed int64

	// Panic is the probability that a cell's first attempt panics.
	// Panics are injected on attempt 0 only, so a retried cell can
	// distinguish "crashed once" from "always crashes".
	Panic float64

	// Transient is the probability that a cell fails with ErrTransient;
	// TransientAttempts is how many leading attempts fail before the cell
	// succeeds (default 1).
	Transient         float64
	TransientAttempts int

	// DelayProb is the probability that a cell sleeps Delay before
	// running, to shake out ordering assumptions.
	DelayProb float64
	Delay     time.Duration

	// KillAfter, when positive, fires the kill callback (see
	// Schedule.OnKill) once the schedule has seen that many cell entries —
	// the chaos tests use it to cancel or SIGKILL a sweep mid-run.
	KillAfter int
}

// ParseSpec parses the -fault flag syntax: comma-separated key=value
// pairs, e.g.
//
//	seed=7,panic=0.1,transient=0.2:2,delay=0.05:10ms,kill-after=5
//
// transient takes an optional :attempts suffix, delay a mandatory
// :duration suffix. An empty string yields a zero Spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	spec.TransientAttempts = 1
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("faultinject: bad pair %q (want key=value)", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("faultinject: bad seed %q", val)
			}
			spec.Seed = n
		case "panic":
			p, err := parseProb(val)
			if err != nil {
				return spec, fmt.Errorf("faultinject: bad panic prob %q", val)
			}
			spec.Panic = p
		case "transient":
			prob, attempts, found := strings.Cut(val, ":")
			p, err := parseProb(prob)
			if err != nil {
				return spec, fmt.Errorf("faultinject: bad transient prob %q", prob)
			}
			spec.Transient = p
			if found {
				n, err := strconv.Atoi(attempts)
				if err != nil || n < 1 {
					return spec, fmt.Errorf("faultinject: bad transient attempts %q", attempts)
				}
				spec.TransientAttempts = n
			}
		case "delay":
			prob, dur, found := strings.Cut(val, ":")
			if !found {
				return spec, fmt.Errorf("faultinject: delay needs prob:duration, got %q", val)
			}
			p, err := parseProb(prob)
			if err != nil {
				return spec, fmt.Errorf("faultinject: bad delay prob %q", prob)
			}
			d, err := time.ParseDuration(dur)
			if err != nil || d < 0 {
				return spec, fmt.Errorf("faultinject: bad delay duration %q", dur)
			}
			spec.DelayProb, spec.Delay = p, d
		case "kill-after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return spec, fmt.Errorf("faultinject: bad kill-after %q", val)
			}
			spec.KillAfter = n
		default:
			return spec, fmt.Errorf("faultinject: unknown key %q", key)
		}
	}
	return spec, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	// The negated range check also rejects NaN, which compares false to
	// everything and would otherwise slip through as a "probability".
	if err != nil || !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %q not in [0,1]", s)
	}
	return p, nil
}

// Zero reports whether the spec injects nothing, so callers can skip
// installing a hook entirely.
func (s Spec) Zero() bool {
	return s.Panic == 0 && s.Transient == 0 && s.DelayProb == 0 && s.KillAfter == 0
}

// Schedule is an instantiated Spec: a concurrency-safe fault source whose
// Hook plugs into runner.Cfg.Fault.
type Schedule struct {
	spec    Spec
	entered atomic.Int64
	killed  atomic.Bool
	onKill  atomic.Pointer[func()]
}

// New instantiates a schedule for the spec.
func New(spec Spec) *Schedule {
	if spec.TransientAttempts < 1 {
		spec.TransientAttempts = 1
	}
	return &Schedule{spec: spec}
}

// OnKill registers the callback fired (once) when KillAfter cell entries
// have been observed. Typically a context cancel, or os.Exit for
// hard-kill chaos tests.
func (s *Schedule) OnKill(fn func()) { s.onKill.Store(&fn) }

// Hook returns the runner fault hook implementing the schedule, or nil
// when the spec injects nothing.
func (s *Schedule) Hook() func(cell, attempt int) error {
	if s.spec.Zero() {
		return nil
	}
	return s.inject
}

func (s *Schedule) inject(cell, attempt int) error {
	n := s.entered.Add(1)
	if k := s.spec.KillAfter; k > 0 && n >= int64(k) && s.killed.CompareAndSwap(false, true) {
		if fn := s.onKill.Load(); fn != nil {
			(*fn)()
		}
	}
	if s.spec.DelayProb > 0 && s.roll("delay", cell) < s.spec.DelayProb {
		time.Sleep(s.spec.Delay)
	}
	if s.spec.Panic > 0 && attempt == 0 && s.roll("panic", cell) < s.spec.Panic {
		panic(fmt.Sprintf("faultinject: injected panic (seed %d, cell %d)", s.spec.Seed, cell))
	}
	if s.spec.Transient > 0 && attempt < s.spec.TransientAttempts && s.roll("transient", cell) < s.spec.Transient {
		return fmt.Errorf("cell %d attempt %d: %w", cell, attempt, ErrTransient)
	}
	return nil
}

// roll maps (seed, kind, cell) to a uniform value in [0,1), independent of
// call order or concurrency.
func (s *Schedule) roll(kind string, cell int) float64 {
	return rollAt(s.spec.Seed, kind, uint64(cell))
}

// rollAt maps (seed, kind, key) to a uniform value in [0,1). It is the
// package's one source of randomness: pure, order-independent, shared by
// the cell schedule (key = cell index) and the network fault transport
// (key = request body hash), so a spec's decisions depend only on what is
// being faulted, never on timing.
func rollAt(seed int64, kind string, key uint64) float64 {
	// FNV-1a over the kind keeps different fault kinds decorrelated even
	// for the same (seed, key).
	h := uint64(14695981039346656037)
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= 1099511628211
	}
	x := uint64(seed) ^ h ^ (key+1)*0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
