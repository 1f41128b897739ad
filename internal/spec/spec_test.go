package spec

import (
	"testing"
	"testing/quick"
)

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	f := func(code, a0, a1, a2, id uint64) bool {
		op := Op{Code: code, Args: [3]uint64{a0, a1, a2}, ID: id}
		return DecodeOp(op.Encode(nil)) == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpEncodeAppends(t *testing.T) {
	prefix := []uint64{9, 9}
	op := Op{Code: 1, Args: [3]uint64{2, 3, 4}, ID: 5}
	out := op.Encode(prefix)
	if len(out) != 2+OpWords || out[0] != 9 || out[2] != 1 || out[6] != 5 {
		t.Fatalf("encode: %v", out)
	}
}

func TestMakeSplitID(t *testing.T) {
	f := func(pid uint8, seq uint64) bool {
		p := int(pid % 64)
		s := seq & (1<<48 - 1)
		if s == 0 {
			s = 1
		}
		id := MakeID(p, s)
		gp, gs := SplitID(id)
		return gp == p && gs == s && id != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIDZeroIsReserved(t *testing.T) {
	if MakeID(0, 1) == 0 {
		t.Fatal("MakeID(0,1) collides with the reserved id 0")
	}
	pid, _ := SplitID(0)
	if pid >= 0 {
		t.Fatalf("SplitID(0) returned valid pid %d", pid)
	}
}

func TestSentinelsDistinct(t *testing.T) {
	vals := []uint64{RetEmpty, RetMissing, RetFail, RetOK}
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] == vals[j] {
				t.Fatalf("sentinels %d and %d collide", i, j)
			}
		}
	}
}

// toySpec is a minimal in-package spec for Replay/Equal tests.
type toySpec struct{}

func (toySpec) Name() string { return "toy" }
func (toySpec) New() State   { return &toyState{} }

type toyState struct{ sum uint64 }

func (s *toyState) Apply(op Op) uint64 { s.sum += op.Args[0]; return s.sum }
func (s *toyState) Read(Op) uint64     { return s.sum }
func (s *toyState) Clone() State       { c := *s; return &c }
func (s *toyState) Snapshot() []uint64 { return s.AppendSnapshot(nil) }
func (s *toyState) AppendSnapshot(dst []uint64) []uint64 {
	return append(dst, s.sum)
}
func (s *toyState) Restore(w []uint64) error {
	s.sum = w[0]
	return nil
}

func TestReplay(t *testing.T) {
	ops := []Op{{Args: [3]uint64{1}}, {Args: [3]uint64{2}}, {Args: [3]uint64{3}}}
	st, ret := Replay(toySpec{}, ops)
	if ret != 6 || st.Read(Op{}) != 6 {
		t.Fatalf("replay: ret=%d state=%d", ret, st.Read(Op{}))
	}
	_, ret = Replay(toySpec{}, nil)
	if ret != RetOK {
		t.Fatalf("empty replay ret=%d", ret)
	}
}

func TestEqual(t *testing.T) {
	a, _ := Replay(toySpec{}, []Op{{Args: [3]uint64{5}}})
	b, _ := Replay(toySpec{}, []Op{{Args: [3]uint64{2}}, {Args: [3]uint64{3}}})
	c, _ := Replay(toySpec{}, []Op{{Args: [3]uint64{4}}})
	if !Equal(a, b) {
		t.Fatal("equal states compared unequal")
	}
	if Equal(a, c) {
		t.Fatal("unequal states compared equal")
	}
}
