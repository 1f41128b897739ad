package objects

import (
	"math/rand"
	"testing"

	"repro/internal/spec"
)

// TestCopyFromMatchesCloneAndIsIndependent: for every shipped object,
// CopyFrom onto a fresh state and onto a previously-used (dirty) state
// must both serialize identically to the source, and mutating the copy
// must not leak into the source (the same destination absorbs a
// different state every time).
func TestCopyFromMatchesCloneAndIsIndependent(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			gen := randomOps(sp, 300, 1)
			src := sp.New()
			if _, ok := src.(spec.Copier); !ok {
				t.Fatalf("%s does not implement spec.Copier", sp.Name())
			}
			for _, op := range gen {
				src.Apply(op)
			}
			want := src.Snapshot()

			fresh := sp.New()
			spec.Copy(fresh, src)
			assertSnap(t, "fresh CopyFrom", want, fresh.Snapshot())

			dirty := sp.New()
			for _, op := range randomOps(sp, 120, 2) {
				dirty.Apply(op)
			}
			spec.Copy(dirty, src)
			assertSnap(t, "dirty CopyFrom", want, dirty.Snapshot())

			// Independence: mutating the copy leaves the source alone.
			for _, op := range randomOps(sp, 60, 3) {
				dirty.Apply(op)
			}
			assertSnap(t, "source after copy mutation", want, src.Snapshot())
		})
	}
}

func assertSnap(t *testing.T, what string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: snapshot length %d != %d", what, got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: snapshot word %d: %d != %d", what, i, got[i], want[i])
		}
	}
}

// randomOps returns a seeded stream of update ops for sp.
func randomOps(sp spec.Spec, n int, seed int64) []spec.Op {
	d := sp.(Describer)
	var updates []OpInfo
	for _, oi := range d.Ops() {
		if oi.Kind == KindUpdate {
			updates = append(updates, oi)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]spec.Op, 0, n)
	for i := 0; i < n; i++ {
		oi := updates[rng.Intn(len(updates))]
		op := spec.Op{Code: oi.Code, ID: uint64(i + 1)}
		for k := 0; k < oi.Arity; k++ {
			op.Args[k] = uint64(rng.Intn(48)) + 1
		}
		out = append(out, op)
	}
	return out
}
