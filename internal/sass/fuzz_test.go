package sass_test

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/workloads"
)

// FuzzAssemble throws arbitrary sources at the SASS-dialect assembler.
// The invariants: Assemble never panics, and any program it accepts
// survives a disassemble/reassemble round-trip with stable output —
// Disassemble must emit text the assembler itself parses back to the
// same program. The seed corpus is the real kernels of the paper's
// 10-benchmark suite, so every grammar production the simulators depend
// on is in the initial population. (The test lives in package sass_test
// because workloads imports sass.)
func FuzzAssemble(f *testing.F) {
	for _, src := range workloads.KernelSources(gpu.NVIDIA) {
		f.Add(src)
	}
	f.Add(".kernel k\nEXIT\n")
	f.Add(".kernel k\n.shared 64\nloop:\n@P0 BRA loop\n@!P1 EXIT\nEXIT\n")
	f.Add(".kernel k\n    FADD R0, R1, 1.5e-3f\n    LDG R2, [R3+8]\n    STG [R3-4], R2\n    EXIT\n")
	f.Add(".kernel k\n    IMAD R3, R1, R2, c[0]\n    ISETP.GE P0, R3, 0x10\n    EXIT ; comment\n")
	// RZ as a destination in every format that prints one: it must
	// disassemble as RZ, which reassembles, not as R255, which does not.
	f.Add(".kernel k\n S2R RZ, SR_TID.X\n MOV RZ, R1\n LDG RZ, [R1]\n IMAD RZ, R1, R1, R1\n SEL RZ, R1, R1, PT\n EXIT\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := sass.Assemble(src)
		if err != nil {
			return
		}
		text := p.Disassemble()
		p2, err := sass.Assemble(text)
		if err != nil {
			t.Fatalf("accepted program's disassembly does not reassemble: %v\ninput:\n%s\ndisassembly:\n%s", err, src, text)
		}
		if got := p2.Disassemble(); got != text {
			t.Fatalf("round-trip unstable:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
	})
}
