package simt_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// tamperCase is a real mid-launch snapshot split into its memory image
// and meta blob, ready to be corrupted.
type tamperCase struct {
	v    vendor
	k    gpu.Kernel
	mem  *gpu.MemImage
	meta []byte
}

func newTamperCase(t testing.TB, v vendor) tamperCase {
	t.Helper()
	d, snap, _ := v.pinCapture(t)
	mem, meta, err := d.(gpu.SnapshotCodec).MarshalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return tamperCase{v: v, k: v.mustAssemble(t, v.pinSrc), mem: mem, meta: meta}
}

// drive XORs eight bytes of the meta at off and takes the result through
// the injector's path: unmarshal, restore into a fresh device, re-drive
// the host program. Any step may fail; none may panic, and a blob that
// does not decode must say so with wire.ErrCorrupt (which the ladder
// loader turns into "rebuild the ladder").
func (c tamperCase) drive(t testing.TB, off int, xor uint64) (decoded bool) {
	t.Helper()
	meta := append([]byte(nil), c.meta...)
	off %= len(meta)
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], xor)
	for i := 0; i < 8 && off+i < len(meta); i++ {
		meta[off+i] ^= word[i]
	}
	d := c.v.mustNew(t, c.v.tiny())
	snap, err := d.(gpu.SnapshotCodec).UnmarshalSnapshot(c.mem, meta)
	if err != nil {
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("offset %d xor %#x: unmarshal failed without ErrCorrupt: %v", off, xor, err)
		}
		return false
	}
	if err := d.Restore(snap); err != nil {
		return true
	}
	d.SetWatchdog(100_000)
	_, _ = c.v.pinDrive(d, c.k) // any error is an acceptable outcome
	return true
}

// TestTamperedMetaNeverPanics sweeps single-field corruptions over the
// whole meta blob of a real mid-launch snapshot. Before the shared
// decoder validated what it read, a CRC-valid blob with (say) a block
// register base out of range decoded, restored and then indexed the
// register file out of range inside Launch.
func TestTamperedMetaNeverPanics(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		c := newTamperCase(t, v)
		decoded := 0
		for off := 0; off < len(c.meta); off += 4 {
			for _, xor := range []uint64{1, 1 << 40, ^uint64(0)} {
				if c.drive(t, off, xor) {
					decoded++
				}
			}
		}
		// Flips inside register and local-memory contents are legitimate
		// states: most of the sweep must still decode and run.
		if decoded == 0 {
			t.Fatal("no tampered blob decoded: the sweep exercised only the decoder")
		}
	})
}

// FuzzSnapshotMeta explores the same path with fuzzer-chosen corruptions.
func FuzzSnapshotMeta(f *testing.F) {
	cases := make([]tamperCase, len(vendors))
	for i, v := range vendors {
		cases[i] = newTamperCase(f, v)
		for off := 0; off < 128; off += 8 {
			f.Add(i == 1, uint32(off), uint64(1)<<40)
		}
		// The tail of the blob is the last unit's block and wave records.
		for back := 8; back < 2048; back += 64 {
			f.Add(i == 1, uint32(len(cases[i].meta)-back), ^uint64(0))
		}
	}
	f.Fuzz(func(t *testing.T, amd bool, off uint32, xor uint64) {
		c := cases[0]
		if amd {
			c = cases[1]
		}
		c.drive(t, int(off), xor)
	})
}
