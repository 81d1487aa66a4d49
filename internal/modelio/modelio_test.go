package modelio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ristretto/internal/workload"
)

func TestFeatureMapRoundTrip(t *testing.T) {
	g := workload.NewGen(1)
	f := g.FeatureMapExact(5, 9, 7, 8, 2, 0.4, 0.7)
	var buf bytes.Buffer
	if err := WriteFeatureMap(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFeatureMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.C != f.C || got.H != f.H || got.W != f.W || got.Bits != f.Bits {
		t.Fatalf("shape lost: %v vs %v", got, f)
	}
	for i := range f.Data {
		if got.Data[i] != f.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestKernelStackRoundTrip(t *testing.T) {
	g := workload.NewGen(2)
	k := g.KernelsExact(4, 3, 3, 3, 4, 2, 0.5, 0.8)
	var buf bytes.Buffer
	if err := WriteKernelStack(&buf, k); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernelStack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != k.K || got.C != k.C || got.KH != k.KH || got.KW != k.KW || got.Bits != k.Bits {
		t.Fatal("shape lost")
	}
	for i := range k.Data {
		if got.Data[i] != k.Data[i] {
			t.Fatalf("data mismatch at %d (negative values must survive)", i)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := workload.NewGen(3)
	f := g.FeatureMapExact(2, 4, 4, 8, 2, 0.5, 0.7)
	var buf bytes.Buffer
	if err := WriteFeatureMap(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40
	if _, err := ReadFeatureMap(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	g := workload.NewGen(4)
	f := g.FeatureMapExact(2, 4, 4, 8, 2, 0.5, 0.7)
	var buf bytes.Buffer
	if err := WriteFeatureMap(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKernelStack(&buf); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := ReadFeatureMap(bytes.NewReader([]byte("nope, not a tensor at all........"))); err == nil {
		t.Fatal("bad stream accepted")
	}
}

func TestTruncationRejected(t *testing.T) {
	g := workload.NewGen(5)
	f := g.FeatureMapExact(2, 4, 4, 8, 2, 0.5, 0.7)
	var buf bytes.Buffer
	if err := WriteFeatureMap(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-9]
	if _, err := ReadFeatureMap(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	g := workload.NewGen(6)
	f := g.FeatureMapExact(3, 6, 6, 4, 2, 0.4, 0.8)
	k := g.KernelsExact(2, 3, 3, 3, 8, 2, 0.5, 0.8)
	fp := filepath.Join(dir, "acts.rstt")
	kp := filepath.Join(dir, "weights.rstt")
	if err := SaveFeatureMap(fp, f); err != nil {
		t.Fatal(err)
	}
	if err := SaveKernelStack(kp, k); err != nil {
		t.Fatal(err)
	}
	f2, err := LoadFeatureMap(fp)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LoadKernelStack(kp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != f2.Data[i] {
			t.Fatal("feature map file round trip failed")
		}
	}
	for i := range k.Data {
		if k.Data[i] != k2.Data[i] {
			t.Fatal("kernel file round trip failed")
		}
	}
	// Sparse tensors should compress well below 4 B/element.
	st, err := os.Stat(fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(4*len(f.Data)) {
		t.Fatalf("varint encoding ineffective: %d bytes for %d elements", st.Size(), len(f.Data))
	}
}

func TestSaveErrorPaths(t *testing.T) {
	// A path whose parent is a regular file is unwritable for any user
	// (unlike a missing absolute directory, which root could create).
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(blocker, "x.rstt")
	g := workload.NewGen(7)
	f := g.FeatureMapExact(1, 2, 2, 8, 2, 0.5, 0.7)
	if err := SaveFeatureMap(bad, f); err == nil {
		t.Fatal("expected error for unwritable path")
	}
	if _, err := LoadFeatureMap(bad); err == nil {
		t.Fatal("expected error for missing file")
	}
	k := g.KernelsExact(1, 1, 1, 1, 8, 2, 1, 1)
	if err := SaveKernelStack(bad, k); err == nil {
		t.Fatal("expected error for unwritable kernel path")
	}
	if _, err := LoadKernelStack(bad); err == nil {
		t.Fatal("expected error for missing kernel file")
	}
}

func TestVersionRejected(t *testing.T) {
	g := workload.NewGen(8)
	f := g.FeatureMapExact(1, 2, 2, 8, 2, 0.5, 0.7)
	var buf bytes.Buffer
	if err := WriteFeatureMap(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // bump version
	// Re-stamp the checksum so only the version check can fail.
	body := raw[:len(raw)-4]
	sum := crc32.ChecksumIEEE(body)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
	if _, err := ReadFeatureMap(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version not checked: %v", err)
	}
}
