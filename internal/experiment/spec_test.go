package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/protect"
)

// TestFigureSpecGoldens pins the canonical JSON of the three figure
// specs: the canned specs must marshal byte-identically to the committed
// testdata files, and those files must parse back into the same spec
// (full round-trip). A diff here means the spec schema or the figure
// grids changed — both are compatibility events.
func TestFigureSpecGoldens(t *testing.T) {
	t.Parallel()
	for fig := 1; fig <= 3; fig++ {
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			spec, err := Figure(fig)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("fig%d.json", fig))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fig %d spec drifted from %s:\n%s\nwant:\n%s", fig, path, got, want)
			}
			// Round-trip: the golden file parses into the same spec.
			parsed, err := ParseBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parsed.Normalize(), spec) {
				t.Errorf("fig %d: parsed spec differs:\n%+v\nwant:\n%+v", fig, parsed.Normalize(), spec)
			}
		})
	}
}

// TestParseRejectsUnknownFields: a typo must not silently change an
// experiment's meaning, and a retired field (the checkpoint interval; the
// golden run sizes its own ladder) is refused, not ignored. The error
// names the field.
func TestParseRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		`{"version": 1, "injctions": 500}`:                                                               "injctions",
		`{"version": 1, "metrics": {"epff": true}}`:                                                      "epff",
		`{"version": 1, "policy": {"margn": 0.05}}`:                                                      "margn",
		`{"version": 1, "policy": {"checkpoint": {"interval": 4096}}}`:                                   "interval",
		`{"version": 1, "metrics": {"protection": [{"name": "x", "schemes": [{"scheme": "hamming"}]}]}}`: "unknown protection scheme",
		`{"version": 1, "metrics": {"protection": [{"name": "x", "schemes": [{"perf_overhed": 0.1}]}]}}`: "perf_overhed",
	}
	for c, field := range cases {
		if _, err := ParseBytes([]byte(c)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("spec %s: err %v, want one naming %q", c, err, field)
		}
	}
}

// TestNormalizeIdempotent: Normalize must be a projection, and equal
// specs must compile to equal cell keys however they were written.
func TestNormalizeIdempotent(t *testing.T) {
	t.Parallel()
	specs := []Spec{
		{},
		{Structures: []gpu.Structure{gpu.LocalMemory}},
		{Estimator: EstimatorFI, Injections: 123, Seed: 42, Policy: Policy{Margin: 0.05}},
		mustFigure(t, 3),
	}
	for i, s := range specs {
		n1 := s.Normalize()
		n2 := n1.Normalize()
		if !reflect.DeepEqual(n1, n2) {
			t.Errorf("spec %d: Normalize not idempotent:\n%+v\nvs\n%+v", i, n1, n2)
		}
	}
}

func mustFigure(t *testing.T, fig int) Spec {
	t.Helper()
	s, err := Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEqualSpecsEqualKeys: a sparse spec and its normalized form, or a
// spec round-tripped through JSON, must compile to the same cell keys —
// the property that lets every surface share one store.
func TestEqualSpecsEqualKeys(t *testing.T) {
	t.Parallel()
	sparse := Spec{Seed: 7, Injections: 60}
	full := sparse.Normalize()

	keysOf := func(s Spec) []string {
		t.Helper()
		p, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range p.Keys() {
			out = append(out, string(k))
		}
		return out
	}

	want := keysOf(sparse)
	if got := keysOf(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("normalized spec compiled to different keys")
	}
	b, err := sparse.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	roundTripped, err := ParseBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(roundTripped); !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round-trip compiled to different keys")
	}
}

// TestValidate covers the rejection paths.
func TestValidate(t *testing.T) {
	t.Parallel()
	negOverhead := -0.5
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad version", Spec{Version: 2}, "unsupported spec version"},
		{"bad estimator", Spec{Estimator: "magic"}, "unknown estimator"},
		{"bad chip", Spec{Chips: []string{"GeForce 9999"}}, "unknown"},
		{"bad bench", Spec{Benchmarks: []string{"nope"}}, "unknown"},
		{"dup chip", Spec{Chips: []string{"GeForce GTX 480", "GeForce GTX 480"}}, "duplicate chip"},
		{"dup structure", Spec{Structures: []gpu.Structure{gpu.RegisterFile, gpu.RegisterFile}}, "duplicate structure"},
		{"bad margin", Spec{Policy: Policy{Margin: 1.5}}, "margin"},
		{"confidence typo", Spec{Policy: Policy{Confidence: 95}}, "confidence"},
		{"negative confidence", Spec{Policy: Policy{Confidence: -0.5}}, "confidence"},
		{"negative injections", Spec{Injections: -3}, "negative injections"},
		{"epf without fi", Spec{Estimator: EstimatorACE, Metrics: Metrics{EPF: true}}, "need the fi estimator"},
		{"unnamed protection", Spec{Metrics: Metrics{Protection: []Protection{{}}}}, "without a name"},
		{"bad scheme", Spec{Metrics: Metrics{Protection: []Protection{{Name: "x", Schemes: []protect.Config{{Scheme: protect.Scheme(7)}}}}}}, "unknown protection scheme"},
		{"negative perf overhead", Spec{Metrics: Metrics{Protection: []Protection{{Name: "x", Schemes: []protect.Config{{Scheme: protect.Parity, PerfOverhead: &negOverhead}}}}}}, "negative perf_overhead"},
		{"off-axis protection", Spec{Structures: []gpu.Structure{gpu.RegisterFile}, Metrics: Metrics{Protection: []Protection{{Name: "x", Schemes: []protect.Config{{Structure: gpu.LocalMemory, Scheme: protect.Parity}}}}}}, "not on the structure axis"},
		{"dup protection structure", Spec{Metrics: Metrics{Protection: []Protection{{Name: "x", Schemes: []protect.Config{
			{Structure: gpu.RegisterFile, Scheme: protect.Parity}, {Structure: gpu.RegisterFile, Scheme: protect.SECDED}}}}}}, "twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
	if _, err := mustFigure(t, 3).Validate(); err != nil {
		t.Fatalf("fig 3 spec invalid: %v", err)
	}
	// FIT rides on any estimator — it only needs an AVF, which the
	// ACE analysis also measures.
	if _, err := (Spec{Estimator: EstimatorACE, Metrics: Metrics{FIT: true}}).Validate(); err != nil {
		t.Fatalf("fit under ace rejected: %v", err)
	}
}

// TestFigureDefaults: the Fig. 2 spec must default to the shared-memory
// benchmark subset, and Fig. 1/3 to the full suite.
func TestFigureDefaults(t *testing.T) {
	t.Parallel()
	f1 := mustFigure(t, 1)
	f2 := mustFigure(t, 2)
	f3 := mustFigure(t, 3)
	if len(f1.Benchmarks) != 10 || len(f3.Benchmarks) != 10 {
		t.Fatalf("fig 1/3 benchmarks: %d/%d, want 10/10", len(f1.Benchmarks), len(f3.Benchmarks))
	}
	if len(f2.Benchmarks) != 7 {
		t.Fatalf("fig 2 benchmarks: %d, want 7", len(f2.Benchmarks))
	}
	if _, err := Figure(4); err == nil {
		t.Fatal("Figure(4) accepted")
	}
}

// TestPlanShape: the compiled grid must be benchmark-major, then chip,
// then structure — the figures' batch order.
func TestPlanShape(t *testing.T) {
	t.Parallel()
	s := Spec{
		Chips:      []string{"Mini NVIDIA", "Mini AMD"},
		Benchmarks: []string{"vectoradd", "transpose"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Seed:       3,
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 8 {
		t.Fatalf("cells: %d, want 8", len(p.Cells))
	}
	first := p.Cells[0]
	if first.Benchmark.Name != "vectoradd" || first.Chip.Name != "Mini NVIDIA" || first.Structure != gpu.RegisterFile {
		t.Fatalf("first cell %s/%s/%s", first.Chip.Name, first.Benchmark.Name, first.Structure)
	}
	second := p.Cells[1]
	if second.Structure != gpu.LocalMemory {
		t.Fatalf("structure must be the innermost axis, got %s", second.Structure)
	}
	if got := len(p.CellSpecs()); got != 8 {
		t.Fatalf("CellSpecs: %d", got)
	}
	if got := len(p.Keys()); got != 8 {
		t.Fatalf("Keys: %d unique, want 8", got)
	}
	// Every cell draws a distinct seed.
	seen := map[uint64]bool{}
	for _, c := range p.Cells {
		if seen[c.Campaign.Seed] {
			t.Fatalf("seed %d reused", c.Campaign.Seed)
		}
		seen[c.Campaign.Seed] = true
	}
}
