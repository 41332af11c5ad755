package cli

import (
	"strings"
	"testing"

	"repro/internal/gpu"
)

// TestRunCheckpointFlag runs the same tiny campaign with checkpointing
// off and auto; both must succeed and print identical AVF lines (the
// knob is execution-only), while a malformed value or a cycle interval
// is rejected before anything runs.
func TestRunCheckpointFlag(t *testing.T) {
	run := func(ckpt string) string {
		t.Helper()
		var sb strings.Builder
		err := Run("sifi", gpu.AMD, []string{"-bench", "vectoradd", "-n", "40", "-seed", "5", "-checkpoint", ckpt}, &sb)
		if err != nil {
			t.Fatalf("-checkpoint %s: %v", ckpt, err)
		}
		return sb.String()
	}
	avfLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "AVF (FI)") {
				return line
			}
		}
		t.Fatalf("no AVF line in output:\n%s", out)
		return ""
	}
	off := avfLine(run("off"))
	auto := avfLine(run("auto"))
	if off != auto {
		t.Fatalf("checkpoint knob changed the measured AVF:\noff:  %s\nauto: %s", off, auto)
	}

	for _, bad := range []string{"sometimes", "4096"} {
		var sb strings.Builder
		err := Run("sifi", gpu.AMD, []string{"-checkpoint", bad}, &sb)
		if err == nil || !strings.Contains(err.Error(), "want auto or off") {
			t.Fatalf("-checkpoint %s accepted (err=%v)", bad, err)
		}
		if sb.Len() != 0 {
			t.Fatalf("-checkpoint %s printed before failing:\n%s", bad, sb.String())
		}
	}
}
