package objects

import (
	"testing"

	"repro/internal/spec"
)

// TestAppendSnapshot pins every state's one encoder. AppendSnapshot onto
// a non-empty prefix keeps the prefix and appends exactly Snapshot()'s
// words, and into a buffer with room for SizeHint+2 words — what
// Snapshot itself and core's chain-base bodies are cut to — it
// allocates nothing. Each state is checked empty, after a random update
// mix and after growth (the ordered map across several blocks).
func TestAppendSnapshot(t *testing.T) {
	prefix := []uint64{7, 8, 9}
	for _, sp := range All() {
		t.Run(sp.Name(), func(t *testing.T) {
			mixed := sp.New()
			for _, op := range randomOps(sp, 300, 1) {
				mixed.Apply(op)
			}
			grown := sp.New()
			fillState(t, sp, grown, 2000)
			for name, st := range map[string]spec.State{"empty": sp.New(), "mixed": mixed, "grown": grown} {
				want := st.Snapshot()
				buf := make([]uint64, len(prefix), len(prefix)+spec.SizeHint(st)+2)
				copy(buf, prefix)
				got := st.AppendSnapshot(buf)
				assertSnap(t, name+" prefix", prefix, got[:len(prefix)])
				assertSnap(t, name+" appended words", want, got[len(prefix):])
				if &got[0] != &buf[0] {
					t.Fatalf("%s: %d snapshot words outgrew a buffer sized from SizeHint %d",
						name, len(want), spec.SizeHint(st))
				}
				if avg := testing.AllocsPerRun(10, func() { st.AppendSnapshot(buf[:len(prefix)]) }); avg != 0 {
					t.Fatalf("%s: AppendSnapshot allocates %.1f objects into a sized buffer", name, avg)
				}
			}
		})
	}
}
