package workloads

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
)

var update = flag.Bool("update", false, "rewrite testdata/programs.golden from what the host programs do now")

// TestHostProgramsPinned pins what every host program does to a device:
// one golden line per (program, chip) with the run's statistics after one
// fault-free Run on a fresh device, the output regions and a SHA-256 of
// their bytes. Allocation order fixes the addresses, launch order and
// argument words fix cycles and output, so a reordered allocation or a
// changed argument is a one-line diff here instead of a moved AVF three
// layers up. Regenerate with
// `go test ./internal/workloads -run TestHostProgramsPinned -update`.
func TestHostProgramsPinned(t *testing.T) {
	const golden = "testdata/programs.golden"
	var b strings.Builder
	for _, bench := range append(All(), SizedBenchmark(1000)) {
		for _, name := range []string{"Mini NVIDIA", "Mini AMD", "GeForce GTX 480", "HD Radeon 7970"} {
			chip, err := chips.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := devices.New(chip)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := bench.New(chip.Vendor)
			if err != nil {
				t.Fatal(err)
			}
			if err := hp.Run(d); err != nil {
				t.Fatalf("%s on %s: %v", bench.Name, name, err)
			}
			st := d.Stats()
			fmt.Fprintf(&b, "%s on %s: cycles=%d instrs=%d lane_instrs=%d launches=%d outputs=",
				hp.Name, name, st.Cycles, st.Instructions, st.LaneInstructions, st.Launches)
			h := sha256.New()
			for _, r := range hp.Outputs() {
				bs, err := d.Mem().ReadBytes(r.Addr, int(r.Size))
				if err != nil {
					t.Fatal(err)
				}
				h.Write(bs)
				fmt.Fprintf(&b, "%#x+%d,", r.Addr, r.Size)
			}
			fmt.Fprintf(&b, " sha256=%x\n", h.Sum(nil))
		}
	}
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d programs ran, %s pins %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("host program moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// TestUnknownVendorRefusedAtNew: a vendor with no build is refused when
// the program is built, not by its first Run.
func TestUnknownVendorRefusedAtNew(t *testing.T) {
	for _, bench := range append(All(), SizedBenchmark(1000)) {
		hp, err := bench.New(gpu.Vendor(9))
		if err == nil || hp != nil {
			t.Errorf("%s: New(vendor 9) = %v, %v; want an error", bench.Name, hp, err)
		} else if want := "workloads: " + bench.Name + ": no "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q does not start %q", bench.Name, err, want)
		}
	}
}

// TestFailedAllocationStopsTheProgram: the first failure is what Run
// returns, and nothing after it touches the device.
func TestFailedAllocationStopsTheProgram(t *testing.T) {
	for _, v := range []gpu.Vendor{gpu.NVIDIA, gpu.AMD} {
		hp, err := NewVectorAddSized(v, 1<<21) // 3 × 8 MiB on a 4 MiB device
		if err != nil {
			t.Fatal(err)
		}
		d := miniDevice(t, v)
		err = hp.Run(d)
		if err == nil || !strings.Contains(err.Error(), "out of device memory") {
			t.Fatalf("%v: Run = %v, want the allocator's error", v, err)
		}
		if n := d.Stats().Launches; n != 0 {
			t.Fatalf("%v: %d launches after a failed allocation", v, n)
		}
	}
}
