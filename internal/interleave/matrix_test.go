package interleave

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestMatrixAllObjectsAllConfigs is the broad-coverage matrix: every
// shipped object × every construction variant, each swept over several
// deterministic schedules and crash points with full validation. In
// -short mode a reduced matrix runs.
func TestMatrixAllObjectsAllConfigs(t *testing.T) {
	variants := []struct {
		name  string
		shape core.Config
	}{
		{"plain", core.Config{}},
		{"waitfree", core.Config{WaitFree: true}},
		{"localviews", core.Config{LocalViews: true}},
		{"compaction", core.Config{LocalViews: true, CompactEvery: 4}},
		// The shape everything builds, serves and measures, with the
		// cadence small enough that base cuts, delta cuts and foreign
		// bases all occur inside a five-op stream.
		{"pipeline", core.Config{ReadFastPath: true, DeltaSnapshots: true, CompactEvery: 2}},
	}
	seeds := 4
	fracs := []int{15, 45, 80}
	if testing.Short() {
		seeds = 1
		fracs = []int{45}
	}
	for _, sp := range objects.All() {
		for _, v := range variants {
			sp, v := sp, v
			t.Run(fmt.Sprintf("%s/%s", sp.Name(), v.name), func(t *testing.T) {
				t.Parallel()
				runs, err := Sweep(Config{
					Spec: sp, NProcs: 3, OpsPerProc: 5, UpdatePct: 75,
					WorkSeed: int64(len(sp.Name())), Oracle: pmem.SeededOracle(uint64(v.shape.CompactEvery)+3, 1, 2),
					Core: v.shape,
				}, seeds, fracs)
				if err != nil {
					t.Fatal(err)
				}
				if runs < seeds*(1+len(fracs)) {
					t.Fatalf("only %d runs", runs)
				}
			})
		}
	}
}
