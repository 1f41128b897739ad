package all_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/all"
)

// TestModuleTreeClean is the acceptance regression for the static
// invariant gate: the whole module must be onllvet-clean. If a change
// reintroduces a fence on the read fast path, a plain read of an
// atomic field, an un-gated clock read on a hot path, or a ragged
// line-padded struct, this test — and so
// `go test ./...` — fails with the same diagnostics onllvet prints.
func TestModuleTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; skipped in -short mode")
	}
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Skipf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Skip("no module context")
	}
	root := filepath.Dir(gomod)
	prog, err := analysis.LoadModule(root, "./...")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(prog.Packages) < 10 {
		t.Fatalf("LoadModule found only %d packages; the module load is broken", len(prog.Packages))
	}
	diags, err := analysis.Run(prog, analysis.Options{Analyzers: all.Analyzers})
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
	}
}
