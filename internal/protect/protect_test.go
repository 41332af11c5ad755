package protect

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gpu"
)

func baseStudy() Study {
	return Study{
		Cycles:        1_000_000,
		ClockGHz:      1.0,
		RawFITPerMbit: 1000,
		Structures: []StructureMeasurement{
			{Structure: gpu.RegisterFile, SDCAVF: 0.04, DUEAVF: 0.01, Bits: 8 << 20},
			{Structure: gpu.LocalMemory, SDCAVF: 0.02, DUEAVF: 0.00, Bits: 2 << 20},
		},
	}
}

func TestUnprotectedBaseline(t *testing.T) {
	res, err := Evaluate(baseStudy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown != 0 || res.ExtraBits != 0 {
		t.Fatalf("baseline has overheads: %+v", res)
	}
	// FIT: RF (0.05 * 8Mbit/1e6 * 1000) = 419.43..; LM 0.02*2M*... compute:
	wantSDC := 0.04*float64(8<<20)/1e6*1000 + 0.02*float64(2<<20)/1e6*1000
	wantDUE := 0.01 * float64(8<<20) / 1e6 * 1000
	if math.Abs(res.SDCFIT-wantSDC) > 1e-9 || math.Abs(res.DUEFIT-wantDUE) > 1e-9 {
		t.Fatalf("FIT split: %v/%v, want %v/%v", res.SDCFIT, res.DUEFIT, wantSDC, wantDUE)
	}
	if res.EPF <= 0 {
		t.Fatal("baseline EPF must be finite")
	}
}

func TestParityConvertsSDCToDUE(t *testing.T) {
	res, err := Evaluate(baseStudy(), []Config{
		{Structure: gpu.RegisterFile, Scheme: Parity},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Register-file SDC disappears; its whole AVF shows up as DUE.
	wantSDC := 0.02 * float64(2<<20) / 1e6 * 1000 // local memory only
	wantDUE := 0.05 * float64(8<<20) / 1e6 * 1000
	if math.Abs(res.SDCFIT-wantSDC) > 1e-9 || math.Abs(res.DUEFIT-wantDUE) > 1e-9 {
		t.Fatalf("FIT split: %v/%v, want %v/%v", res.SDCFIT, res.DUEFIT, wantSDC, wantDUE)
	}
	if res.Slowdown != ParityPerfOverhead {
		t.Fatalf("slowdown %v", res.Slowdown)
	}
	if res.ExtraBits != int64(float64(8<<20)/32) {
		t.Fatalf("extra bits %d", res.ExtraBits)
	}
}

func TestSECDEDEliminatesStructureFIT(t *testing.T) {
	res, err := Evaluate(baseStudy(), []Config{
		{Structure: gpu.RegisterFile, Scheme: SECDED},
		{Structure: gpu.LocalMemory, Scheme: SECDED},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCFIT != 0 || res.DUEFIT != 0 {
		t.Fatalf("SECDED left FIT: %+v", res)
	}
	if res.EPF != 0 {
		t.Fatalf("EPF should be reported as 0 (infinite) when FIT is 0, got %v", res.EPF)
	}
	if res.Slowdown != 2*SECDEDPerfOverhead {
		t.Fatalf("slowdown %v", res.Slowdown)
	}
}

func TestProtectionImprovesEPFDespiteSlowdown(t *testing.T) {
	base, err := Evaluate(baseStudy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := Evaluate(baseStudy(), []Config{
		{Structure: gpu.RegisterFile, Scheme: SECDED},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.EPF <= base.EPF {
		t.Fatalf("protecting the dominant structure must raise EPF: %v -> %v", base.EPF, prot.EPF)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := baseStudy()
	s.Cycles = 0
	if _, err := Evaluate(s, nil); err == nil {
		t.Fatal("zero cycles accepted")
	}
	s = baseStudy()
	s.Structures[0].SDCAVF = 1.2
	if _, err := Evaluate(s, nil); err == nil {
		t.Fatal("invalid AVF accepted")
	}
	if _, err := Evaluate(baseStudy(), []Config{
		{Structure: gpu.RegisterFile, Scheme: Parity},
		{Structure: gpu.RegisterFile, Scheme: SECDED},
	}); err == nil {
		t.Fatal("duplicate structure config accepted")
	}
}

func TestSchemeString(t *testing.T) {
	if None.String() != "none" || Parity.String() != "parity" || SECDED.String() != "secded" {
		t.Fatal("scheme names wrong")
	}
}

// TestSchemeText: the JSON form of a scheme is its String name, an empty
// name decodes to None, and an unknown one is refused.
func TestSchemeText(t *testing.T) {
	for _, sc := range []Scheme{None, Parity, SECDED} {
		b, err := sc.MarshalText()
		if err != nil || string(b) != sc.String() {
			t.Fatalf("MarshalText(%v) = %q, %v", sc, b, err)
		}
		var got Scheme = -1
		if err := got.UnmarshalText(b); err != nil || got != sc {
			t.Fatalf("UnmarshalText(%q) = %v, %v", b, got, err)
		}
	}
	got := SECDED
	if err := got.UnmarshalText(nil); err != nil || got != None {
		t.Fatalf("empty name decoded to %v, %v", got, err)
	}
	if err := got.UnmarshalText([]byte("hamming")); err == nil || !strings.Contains(err.Error(), "unknown protection scheme") {
		t.Fatalf("unknown name: %v", err)
	}
}

// TestConfigValidate: a scheme outside the table or a negative slowdown
// is refused, by Validate and by Evaluate.
func TestConfigValidate(t *testing.T) {
	neg := -0.5
	for _, c := range []Config{
		{Structure: gpu.RegisterFile, Scheme: Scheme(7)},
		{Structure: gpu.RegisterFile, Scheme: Parity, PerfOverhead: &neg},
	} {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", c)
		}
		if _, err := Evaluate(baseStudy(), []Config{c}); err == nil {
			t.Fatalf("Evaluate accepted %+v", c)
		}
	}
	if err := (Config{Structure: gpu.RegisterFile, Scheme: Scheme(7)}).Validate(); !strings.Contains(err.Error(), "unknown protection scheme") {
		t.Fatalf("out-of-range scheme: %v", err)
	}
	zero := 0.0
	res, err := Evaluate(baseStudy(), []Config{{Structure: gpu.RegisterFile, Scheme: SECDED, PerfOverhead: &zero}})
	if err != nil || res.Slowdown != 0 {
		t.Fatalf("explicit zero overhead: %+v, %v", res, err)
	}
}
