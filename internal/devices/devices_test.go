package devices

import (
	"testing"

	"repro/internal/amdsim"
	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/nvsim"
)

func TestVendorDispatch(t *testing.T) {
	nv, err := New(chips.GeForceGTX480())
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := nv.(*nvsim.Device); !ok || d.Chip.Vendor != gpu.NVIDIA || d.Chip.Name != "GeForce GTX 480" {
		t.Fatalf("NVIDIA dispatch: %T", nv)
	}
	amd, err := New(chips.HDRadeon7970())
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := amd.(*amdsim.Device); !ok || d.Chip.Vendor != gpu.AMD {
		t.Fatalf("AMD dispatch: %T", amd)
	}
}

func TestEveryCatalogChipConstructs(t *testing.T) {
	all := append(chips.Evaluated(), chips.Extended()...)
	all = append(all, chips.MiniNVIDIA(), chips.MiniAMD())
	for _, c := range all {
		d, err := New(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, st := range []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory} {
			if bits := int64(d.Units()) * int64(d.StructSize(st)) * int64(gpu.EntryBits(st)); bits != c.StructBits(st) {
				t.Fatalf("%s: %v is %d bits on the device, %d on the chip", c.Name, st, bits, c.StructBits(st))
			}
		}
	}
}

func TestInvalidChipRejected(t *testing.T) {
	bad := chips.MiniNVIDIA()
	bad.Units = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid chip accepted")
	}
}
