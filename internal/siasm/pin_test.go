package siasm_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/siasm"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/kernels.golden from what the assembler produces now")

// TestKernelsPinned pins what the 11 SI kernels of the benchmark suite
// assemble to: one golden line per kernel with the program's footprint
// and a SHA-256 over the field-by-field dump of its instructions (%#v, so
// no String method — and no change to disassembly — can move it). Every
// AVF in the repo starts from these programs; an assembler or kernel edit
// that changes one shows up here as a one-line diff instead of a moved
// figure three layers up. Regenerate with
// `go test ./internal/siasm -run TestKernelsPinned -update`.
func TestKernelsPinned(t *testing.T) {
	const golden = "testdata/kernels.golden"
	var b strings.Builder
	for _, src := range workloads.KernelSources(gpu.AMD) {
		p, err := siasm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := range p.Instrs {
			fmt.Fprintf(h, "%#v\n", p.Instrs[i])
		}
		fmt.Fprintf(&b, "%s instrs=%d vgprs=%d sgprs=%d lds=%d kargs=%d sha256=%x\n",
			p.Name, len(p.Instrs), p.NumVGPRs, p.NumSGPRs, p.LDSBytes, p.NumKArgs, h.Sum(nil))
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
		t.Fatalf("%d kernels assembled, %s pins %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("kernel moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
