// Package crashmatrix is the crash-consistency harness: it replays every
// on-disk state an ill-timed crash or torn write could leave behind — one
// file per byte-truncation point — and asserts the reader's contract on
// each: a store opened on that state serves the old value or the new
// value, never a hybrid, and never an error that poisons the run.
//
// The matrices themselves live in this package's tests (the cell cache's
// entry framing, the experiment checkpoint journal) and in
// internal/fleet's (the fleet journal, whose wrapper is unexported). They
// are the executable form of the durability claims in ARCHITECTURE.md:
// safeio.WriteFile's rename discipline means a torn temp file leaves the
// old entry intact, and the crc-guarded line framing of safeio.Log — the
// one reader both journals share — means a torn tail line is skipped, not
// misparsed.
package crashmatrix

import "fmt"

// Replay invokes check once for every prefix of data, from 0 bytes (the
// file was created but nothing reached the disk) through len(data) (the
// write completed) — each prefix being a state a crash or torn write could
// leave behind. The first failing prefix aborts the replay with its
// truncation point in the error.
func Replay(data []byte, check func(n int, prefix []byte) error) error {
	for n := 0; n <= len(data); n++ {
		if err := check(n, data[:n]); err != nil {
			return fmt.Errorf("crashmatrix: prefix %d/%d: %w", n, len(data), err)
		}
	}
	return nil
}
