package experiment

import (
	"fmt"

	"repro/internal/gpu"
)

// Figure returns the canned spec of one of the paper's figures:
//
//	1 — register-file AVF, FI + ACE, all 10 benchmarks x 4 chips
//	2 — local-memory AVF, FI + ACE, the 7 shared-memory benchmarks
//	3 — EPF over both structures, FI only, all 10 benchmarks
//
// The returned spec is normalized. Callers narrow it by setting Chips,
// Benchmarks, Injections, Seed and Policy before running it; the cell
// keys of the full-size specs are pinned by testdata/fig{1,2,3}.json.
func Figure(fig int) (Spec, error) {
	var s Spec
	switch fig {
	case 1:
		s = Spec{
			Name:       "fig1-register-file-avf",
			Structures: []gpu.Structure{gpu.RegisterFile},
			Estimator:  EstimatorBoth,
		}
	case 2:
		s = Spec{
			Name:       "fig2-local-memory-avf",
			Structures: []gpu.Structure{gpu.LocalMemory},
			Estimator:  EstimatorBoth,
		}
	case 3:
		s = Spec{
			Name:       "fig3-epf",
			Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
			Estimator:  EstimatorFI,
			Metrics:    Metrics{EPF: true},
		}
	default:
		return Spec{}, fmt.Errorf("experiment: unknown figure %d (want 1, 2 or 3)", fig)
	}
	return s.Normalize(), nil
}
