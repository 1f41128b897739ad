package objects

import (
	"testing"

	"repro/internal/spec"
)

// TestSizeHint checks every shipped state's copy-cost hint: always
// positive (0 means "unknown" to spec.SizeHint and would silently turn
// core's size-aware cut cadence off for the object), O(1)-cheap by
// construction, and growing with the state so the cadence can track it.
// The hint prices what CopyFrom moves, not the snapshot wire format,
// so the comparison is order-of-magnitude, not equality.
func TestSizeHint(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			st := sp.New()
			empty := spec.SizeHint(st)
			if empty <= 0 {
				t.Fatalf("empty %s hints %d, want > 0", sp.Name(), empty)
			}
			gen := fillState(t, sp, st, 256)
			grown := spec.SizeHint(st)
			if gen > 0 && grown < empty {
				t.Fatalf("%s hint shrank: empty %d, after %d updates %d",
					sp.Name(), empty, gen, grown)
			}
			// Word-sized states (counter, register) legitimately stay
			// flat; anything whose snapshot grew must hint bigger too.
			if snap := len(st.Snapshot()); snap > 64 && grown <= empty {
				t.Fatalf("%s hint did not grow: empty %d, after %d updates %d (snapshot %d words)",
					sp.Name(), empty, gen, grown, snap)
			}
			if snap := len(st.Snapshot()); grown > 0 && snap > 0 {
				if grown > 64*snap+64 || snap > 64*grown+64 {
					t.Fatalf("%s hint %d wildly off snapshot %d words", sp.Name(), grown, snap)
				}
			}
		})
	}
}

// fillState applies n growth-shaped updates, returning how many
// applied (objects without a growing update apply none).
func fillState(t *testing.T, sp spec.Spec, st spec.State, n int) int {
	t.Helper()
	d, ok := sp.(Describer)
	if !ok {
		t.Fatalf("%s does not describe its ops", sp.Name())
	}
	applied := 0
	for _, oi := range d.Ops() {
		if oi.Kind != KindUpdate {
			continue
		}
		for i := 1; i <= n; i++ {
			op := spec.Op{Code: oi.Code}
			for a := 0; a < oi.Arity && a < 3; a++ {
				op.Args[a] = uint64(i*7 + a)
			}
			st.Apply(op)
			applied++
		}
		break // one growing opcode is enough
	}
	return applied
}

// TestOrderedMapSizeHintPricesBlocks: the ordered map's hint is what
// CopyFrom moves — two words a pair plus one index word a block — so a
// map split into half-full blocks hints more than the same pairs in
// full ones, and the hint never reads the blocks themselves.
func TestOrderedMapSizeHintPricesBlocks(t *testing.T) {
	const n = 8 * omapBlockCap
	full, split := OrderedMapSpec{}.New().(*omapState), OrderedMapSpec{}.New().(*omapState)
	for k := uint64(0); k < n; k++ {
		full.put(k, k)    // ascending: every block full
		split.put(n-k, k) // descending: every block but the first a half
	}
	for _, s := range []*omapState{full, split} {
		if got, want := s.SizeHint(), 1+2*n+len(s.blocks); got != want {
			t.Fatalf("hint %d for %d pairs in %d blocks, want %d", got, n, len(s.blocks), want)
		}
	}
	if len(full.blocks) != 8 || full.SizeHint() >= split.SizeHint() {
		t.Fatalf("full: %d blocks hint %d; split: %d blocks hint %d",
			len(full.blocks), full.SizeHint(), len(split.blocks), split.SizeHint())
	}
}
