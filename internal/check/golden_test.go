package check

import (
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
)

// loadGolden reads a gzipped pool image from testdata/images (see
// make.sh there for how each was written).
func loadGolden(t *testing.T, name string) *pmem.Pool {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "images", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pmem.ReadImage(zr, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pool
}

// TestRecoverGoldenImages pins the log format against images written
// by onllcrash builds. The image of the two-tier layout is refused by
// strict and salvaging recovery alike with plog.ErrLayout — not read
// as damage, so neither a quarantine nor plog.ErrCorrupt. The image of
// the one-region layout recovers all 600 operations, 200 per process,
// and classifies Healthy in both modes.
func TestRecoverGoldenImages(t *testing.T) {
	for _, salvage := range []bool{false, true} {
		in, _, err := core.Recover(loadGolden(t, "twotier.img.gz"), objects.MapSpec{}, core.Config{Salvage: salvage})
		if !errors.Is(err, plog.ErrLayout) || errors.Is(err, plog.ErrCorrupt) || in != nil {
			t.Fatalf("salvage=%v: two-tier image recovered with %v, want an error wrapping plog.ErrLayout", salvage, err)
		}

		in, rep, err := core.Recover(loadGolden(t, "onetier.img.gz"), objects.MapSpec{}, core.Config{Salvage: salvage})
		if err != nil {
			t.Fatalf("salvage=%v: one-region image: %v", salvage, err)
		}
		if h := in.Health(); h.Mode != core.ModeHealthy {
			t.Fatalf("salvage=%v: health %v (%v), want healthy", salvage, h.Mode, h.Reason)
		}
		if rep.LastIdx != 600 {
			t.Fatalf("salvage=%v: recovered %d operations, want 600", salvage, rep.LastIdx)
		}
		for pid := 0; pid < 3; pid++ {
			if s := rep.PerProcessSeq[pid]; s != 200 {
				t.Fatalf("salvage=%v: p%d recovered up to op %d, want 200", salvage, pid, s)
			}
		}
		if n := in.Handle(0).Read(objects.MapLen); n != 600 {
			t.Fatalf("salvage=%v: recovered map holds %d keys, want 600", salvage, n)
		}
	}
}
