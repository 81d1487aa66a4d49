package workload

import "math/rand"

// The generator of rand.NewSource: the additive lagged Fibonacci sequence
// x[n] = x[n-rngLen] + x[n-rngTap] (mod 2^64), kept in a ring of rngLen
// values.
const (
	rngLen = 607
	rngTap = 273
)

// source is rand.NewSource's generator as a concrete type, so the weight
// pipeline's producer can walk the stream without a call through the
// rand.Source interface per draw (ziggurat.go). It yields exactly the
// stream rand.NewSource(seed) yields: Uint64 and Int63 advance it as the
// standard library's source does, so a rand.Rand over it (Gen.rng) draws
// the same Float64, Intn and NormFloat64 values.
type source struct {
	tap, feed int // ring slots of x[n-rngTap] and x[n-rngLen] for the next x[n]
	vec       [rngLen]int64
}

// newSource returns the source rand.NewSource(seed) would.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed puts s in the state rand.NewSource(seed) starts in. The standard
// library seeds its ring from a table of cooked values; rather than copy
// the table, Seed back-solves the ring from that source's first rngLen
// outputs. The ring here walks upwards, the standard library's downwards:
// step n (0-based) writes y[n] = ring[feed] + ring[tap] into slot
// feed = (n+rngTap) mod rngLen, reading slot tap = n mod rngLen, which step
// n-rngTap wrote when n >= rngTap. So the starting ring is
// ring[(n+rngTap) mod rngLen] = y[n] - y[n-rngTap] for n >= rngTap, and,
// for n < rngTap, ring[n+rngTap] = y[n] minus the starting value of slot
// n, which is the slot of step n+rngLen-rngTap and so already solved.
// Arithmetic wraps, as the generator's does.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]int64
	for n := range y {
		y[n] = int64(ref.Uint64())
	}
	for n := rngTap; n < rngLen; n++ {
		s.vec[(n+rngTap)%rngLen] = y[n] - y[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		s.vec[n+rngTap] = y[n] - s.vec[n]
	}
	s.tap, s.feed = 0, rngTap
}

// Uint64 returns the next value of the stream.
func (s *source) Uint64() uint64 {
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	s.tap, s.feed = next(s.tap), next(s.feed)
	return uint64(x)
}

// Int63 returns the next value of the stream without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// next is the ring slot after i.
func next(i int) int {
	if i++; i == rngLen {
		i = 0
	}
	return i
}
