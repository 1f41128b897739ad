package server

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestQuarantinedInstanceAnswersTyped serves an instance that salvaging
// recovery quarantined: updates and reads both come back as
// core.ErrObjectQuarantined on the client, and the connection keeps
// answering after them. Two processes alternate increments, so nothing
// helps p0's record 3; smashing it strands p1's later records.
func TestQuarantinedInstanceAnswersTyped(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for pid := 0; pid < 2; pid++ {
			if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool.Crash(pmem.DropAll)
	l := in.Log(0)
	w := l.LineAddr(l.Records()[2].Seq) + 2*pmem.WordSize // a checksummed word; the head tag stays intact
	pool.Store(pmem.RootSystemPID, w, 0xBAD0BAD0BAD0BAD0)
	pool.Persist(pmem.RootSystemPID, w, pmem.WordSize)
	pool.Crash(pmem.DropAll)
	qin, _, err := core.Recover(pool, objects.CounterSpec{}, core.Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := qin.Health().Mode; m != core.ModeQuarantined {
		t.Fatalf("recovered %v, want quarantined", m)
	}

	s, err := New(qin, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, kind := range []byte{KindUpdatePersist, KindRead, KindUpdateLinearize, KindRead} {
		code := objects.CounterInc
		if kind == KindRead {
			code = objects.CounterGet
		}
		if _, err := c.Call(kind, code); !errors.Is(err, core.ErrObjectQuarantined) {
			t.Fatalf("request %d (%c): %v, want core.ErrObjectQuarantined", i, kind, err)
		}
	}
}
