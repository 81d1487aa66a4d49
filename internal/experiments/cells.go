package experiments

// This file is the distribution surface of the sweep: the checkpoint
// journal already keys every experiment job by a stable cell key, and the
// fleet coordinator (internal/fleet) uses exactly those keys as its unit of
// work. CellKeys enumerates them, CellSpec.Fingerprint turns one (workload
// config, cell key) pair into a content address for the fleet-wide result
// cache, RunCellChecked executes a single cell with the same panic/timeout
// envelope AllChecked gives a full run, and DecodeCellPayload turns a
// cell's payload back into its Results. fleet.Run decodes the payloads in
// CellKeys order, and TestFleetMatchesSerial (internal/fleet) and
// TestAllDeterministicAcrossWorkersMultiProcess check that the merged list
// renders byte-identically to a serial All() run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"ristretto/internal/runner"
)

// CellFingerprintSchema versions the fingerprint's canonical form. Bump on
// any change to the encoding below: a stale cache entry must never be
// addressable by a fingerprint computed differently.
const CellFingerprintSchema = "ristretto.cell/v1"

// CellDigestSchema versions the payload digest's canonical form (see
// CellPayloadDigest). Bump together with any change to the digest input
// encoding: a digest computed under an older scheme must never verify.
const CellDigestSchema = "ristretto.cell-digest/v1"

// CellPayloadDigest is the end-to-end integrity check of the fleet: a hex
// sha256 over the cell payload bytes *bound to the cell's fingerprint*, so
// a payload cannot be replayed under a different cell identity. Workers
// stamp it on /v1/cell responses, the coordinator verifies it before a
// payload may enter the merge, and the cell cache verifies it on every
// read — a mismatch anywhere quarantines the source instead of serving
// corrupt bytes. Like the fingerprint, fields are length-prefixed so no
// two distinct (fingerprint, payload) pairs share an input encoding.
func CellPayloadDigest(fingerprint string, payload []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema:%d:%s;", len(CellDigestSchema), CellDigestSchema)
	fmt.Fprintf(h, "fp:%d:%s;", len(fingerprint), fingerprint)
	fmt.Fprintf(h, "payload:%d:", len(payload))
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// CellKeys returns every sweep cell key in paper order — the same stable
// keys the checkpoint journal records. The order is part of the merge
// contract: fleet.Run merges cell results in this order so a distributed
// run renders byte-identically to a serial one.
func CellKeys() []string {
	var b Bench
	jobs := (&b).jobs()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.key
	}
	return keys
}

// CellSpec identifies one distributable sweep cell: the workload
// configuration (seed, scale, network subset) plus the stable cell key.
// Two specs with equal fingerprints compute bit-identical payloads, which
// is the correctness invariant of the content-addressed cell cache.
type CellSpec struct {
	Seed  int64    `json:"seed"`
	Scale int      `json:"scale"`
	Nets  []string `json:"nets,omitempty"` // nil = full benchmark
	Cell  string   `json:"cell"`
}

// Fingerprint returns the cell's content address: a hex sha256 over a
// canonical byte encoding of the spec. Canonicalization makes the
// fingerprint independent of representation noise that cannot change the
// result — JSON field order never enters (fields are serialized in a fixed
// order with explicit tags), and Nets is sorted first, because
// Bench.Networks selects in benchmark order regardless of how the subset
// was spelled. Duplicate net names are preserved: Networks duplicates the
// network, which does change the result. Everything that can change a
// single output byte (seed, scale, the multiset of nets, the cell key) is
// included, so distinct cells get distinct fingerprints.
func (c CellSpec) Fingerprint() string {
	h := sha256.New()
	// Length-prefixed fields: no separator collisions between e.g.
	// nets=["ab","c"] and nets=["a","bc"].
	writeField := func(tag, val string) {
		fmt.Fprintf(h, "%s:%d:%s;", tag, len(val), val)
	}
	writeField("schema", CellFingerprintSchema)
	writeField("seed", fmt.Sprint(c.Seed))
	writeField("scale", fmt.Sprint(c.Scale))
	nets := append([]string(nil), c.Nets...)
	sort.Strings(nets)
	writeField("netcount", fmt.Sprint(len(nets)))
	for _, n := range nets {
		writeField("net", n)
	}
	writeField("cell", c.Cell)
	return hex.EncodeToString(h.Sum(nil))
}

// CellSpec returns the spec for one of this bench's cells — the identity
// the coordinator dispatches and caches under.
func (b *Bench) CellSpec(cell string) CellSpec {
	return CellSpec{Seed: b.Seed, Scale: b.Scale, Nets: b.Nets, Cell: cell}
}

// RunCellChecked executes the single named sweep cell under the
// fault-tolerance options and returns its journal payload (the same JSON a
// checkpointed AllChecked run records for that key). A panic, timeout or
// failure inside the cell surfaces as a *runner.CellError carrying the
// cell's replay seed — derived exactly as AllChecked derives it, so a
// remote failure reproduces locally from the returned seed. Unknown keys
// are an error, not a panic: the fleet validates cell names at the API
// boundary with this.
func (b *Bench) RunCellChecked(cell string, opts RunOptions) (json.RawMessage, error) {
	jobs := b.jobs()
	idx := -1
	for i, j := range jobs {
		if j.key == cell {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("experiments: unknown cell %q (see CellKeys)", cell)
	}
	cfg := opts.runnerCfg(b.Seed, func(int) string { return cell })
	outs, err := runner.MapCfg(b.ctx(), runner.Serial(), cfg, 1, func(int) ([]*Result, error) {
		return jobs[idx].run(), nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(encodeResults(outs[0]))
}

// DecodeCellPayload decodes a cell payload (from RunCellChecked, a
// checkpoint journal, the cell cache or the wire) back into its Results.
func DecodeCellPayload(raw json.RawMessage) ([]*Result, error) {
	return decodeResults(raw)
}
