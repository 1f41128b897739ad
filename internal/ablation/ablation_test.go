package ablation

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
)

func TestE13NoHelpingViolatesDurability(t *testing.T) {
	out, err := NoHelping()
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("removing helping did NOT violate durability — the ablation is not exercising the design decision")
	}
	// The specific failure: p1's COMPLETED update is erased, because
	// recovery cannot linearize past the gap p0 left at index 1.
	if !strings.Contains(out.Violation.Error(), "R1") {
		t.Fatalf("expected an R1 (erased completed op) violation, got: %v", out.Violation)
	}
	// Recovery detects the Proposition 5.10 violation by itself: strict
	// recovery of the same image refuses it.
	pool, _, err := noHelpingImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Recover(pool, objects.CounterSpec{}, core.Config{}); !errors.Is(err, core.ErrTornRecord) {
		t.Fatalf("strict recovery of the no-helping image: err=%v, want ErrTornRecord", err)
	}
}

func TestE13LinearizeFirstViolatesDurability(t *testing.T) {
	out, err := LinearizeFirst()
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("linearize-before-persist did NOT violate durability")
	}
	// The specific failure: the completed read exposed a value the
	// recovered order cannot explain (R5).
	if !strings.Contains(out.Violation.Error(), "R5") {
		t.Fatalf("expected an R5 (impossible read) violation, got: %v", out.Violation)
	}
}

func TestE13ControlIsClean(t *testing.T) {
	out, err := Control()
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation != nil {
		t.Fatalf("the real construction violated durability in the control scenario: %v", out.Violation)
	}
}
