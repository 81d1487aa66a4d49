// Package modelio serializes the repository's tensors to a compact binary
// format, so synthesized workloads (the stand-ins for quantized model
// checkpoints) can be saved, exchanged and re-loaded bit-identically —
// the reproduction's equivalent of shipping a model zoo.
//
// Format (little-endian):
//
//	magic "RSTT" | version u8 | kind u8 | bits u8 | pad u8
//	dims  u32 × 4 (unused dims are 1)
//	payload: zig-zag varint per element (sparse tensors compress well)
//	crc32 (IEEE) of everything above
package modelio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ristretto/internal/safeio"
	"ristretto/internal/tensor"
)

const (
	magic   = "RSTT"
	version = 1

	kindFeatureMap  = 1
	kindKernelStack = 2
)

type header struct {
	Kind, Bits uint8
	Dims       [4]uint32
}

func writeAll(w io.Writer, kind, bits uint8, dims [4]uint32, data []int32) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	hdr := []byte{version, kind, bits, 0}
	if _, err := mw.Write(hdr); err != nil {
		return err
	}
	for _, d := range dims {
		if err := binary.Write(mw, binary.LittleEndian, d); err != nil {
			return err
		}
	}
	var buf [binary.MaxVarintLen64]byte
	for _, v := range data {
		n := binary.PutVarint(buf[:], int64(v))
		if _, err := mw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

func readAll(r io.Reader, wantKind uint8) (header, []int32, error) {
	var h header
	raw, err := io.ReadAll(r)
	if err != nil {
		return h, nil, err
	}
	if len(raw) < 4+4+16+4 {
		return h, nil, fmt.Errorf("modelio: truncated stream (%d bytes)", len(raw))
	}
	body := raw[:len(raw)-4]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return h, nil, fmt.Errorf("modelio: checksum mismatch (%08x vs stored %08x)", got, sum)
	}
	if string(body[:4]) != magic {
		return h, nil, fmt.Errorf("modelio: bad magic %q", body[:4])
	}
	if body[4] != version {
		return h, nil, fmt.Errorf("modelio: unsupported version %d", body[4])
	}
	h.Kind, h.Bits = body[5], body[6]
	if h.Kind != wantKind {
		return h, nil, fmt.Errorf("modelio: kind %d, want %d", h.Kind, wantKind)
	}
	n := 1
	off := 8
	for i := range h.Dims {
		h.Dims[i] = binary.LittleEndian.Uint32(body[off:])
		off += 4
		if h.Dims[i] == 0 || h.Dims[i] > 1<<20 {
			return h, nil, fmt.Errorf("modelio: implausible dimension %d", h.Dims[i])
		}
		n *= int(h.Dims[i])
	}
	if n > 1<<28 {
		return h, nil, fmt.Errorf("modelio: tensor too large (%d elements)", n)
	}
	data := make([]int32, n)
	payload := body[off:]
	for i := range data {
		v, sz := binary.Varint(payload)
		if sz <= 0 {
			return h, nil, fmt.Errorf("modelio: payload truncated at element %d", i)
		}
		data[i] = int32(v)
		payload = payload[sz:]
	}
	if len(payload) != 0 {
		return h, nil, fmt.Errorf("modelio: %d trailing payload bytes", len(payload))
	}
	return h, data, nil
}

// WriteFeatureMap serializes f.
func WriteFeatureMap(w io.Writer, f *tensor.FeatureMap) error {
	return writeAll(w, kindFeatureMap, uint8(f.Bits), [4]uint32{uint32(f.C), uint32(f.H), uint32(f.W), 1}, f.Data)
}

// ReadFeatureMap deserializes a feature map.
func ReadFeatureMap(r io.Reader) (*tensor.FeatureMap, error) {
	h, data, err := readAll(r, kindFeatureMap)
	if err != nil {
		return nil, err
	}
	f := tensor.NewFeatureMap(int(h.Dims[0]), int(h.Dims[1]), int(h.Dims[2]), int(h.Bits))
	copy(f.Data, data)
	return f, nil
}

// WriteKernelStack serializes k.
func WriteKernelStack(w io.Writer, k *tensor.KernelStack) error {
	return writeAll(w, kindKernelStack, uint8(k.Bits), [4]uint32{uint32(k.K), uint32(k.C), uint32(k.KH), uint32(k.KW)}, k.Data)
}

// ReadKernelStack deserializes a kernel stack.
func ReadKernelStack(r io.Reader) (*tensor.KernelStack, error) {
	h, data, err := readAll(r, kindKernelStack)
	if err != nil {
		return nil, err
	}
	k := tensor.NewKernelStack(int(h.Dims[0]), int(h.Dims[1]), int(h.Dims[2]), int(h.Dims[3]), int(h.Bits))
	copy(k.Data, data)
	return k, nil
}

// SaveFeatureMap writes f to path.
func SaveFeatureMap(path string, f *tensor.FeatureMap) error {
	return save(path, func(w io.Writer) error { return WriteFeatureMap(w, f) })
}

// LoadFeatureMap reads a feature map from path.
func LoadFeatureMap(path string) (*tensor.FeatureMap, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ReadFeatureMap(fh)
}

// SaveKernelStack writes k to path.
func SaveKernelStack(path string, k *tensor.KernelStack) error {
	return save(path, func(w io.Writer) error { return WriteKernelStack(w, k) })
}

// LoadKernelStack reads a kernel stack from path.
func LoadKernelStack(path string) (*tensor.KernelStack, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ReadKernelStack(fh)
}

// save writes crash-safely: a kill mid-write leaves the previous file (or
// nothing), never a truncated .rstt that would fail its crc on load.
func save(path string, write func(io.Writer) error) error {
	return safeio.WriteTo(path, 0o644, write)
}
