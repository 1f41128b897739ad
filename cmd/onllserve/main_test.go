package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestServeDrains drives serve() itself: one ack-on-persist update and
// one read over an ephemeral loopback listener, then a stop, which must
// drain with both requests counted.
func TestServeDrains(t *testing.T) {
	stop := make(chan struct{})
	up := make(chan *server.Server, 1)
	done := make(chan error, 1)
	go func() { done <- serve(stop, up) }()
	var s *server.Server
	select {
	case s = <-up:
	case err := <-done:
		t.Fatalf("serve returned before listening: %v", err)
	}
	c, err := server.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(server.KindUpdatePersist, objects.OMapPut, 7, 49); err != nil {
		t.Fatalf("update: %v", err)
	}
	if r, err := c.Call(server.KindRead, objects.OMapGet, 7); err != nil || r.Ret != 49 {
		t.Fatalf("read: %d, %v, want 49", r.Ret, err)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if st := s.Stats(); st.Updates != 1 || st.Reads != 1 {
		t.Fatalf("after drain: %d updates, %d reads, want 1 and 1", st.Updates, st.Reads)
	}
}

// TestCoreConfigIsThePipeline pins the served shape to the one
// bench/config.go prices.
func TestCoreConfigIsThePipeline(t *testing.T) {
	got := coreConfig(4, 64)
	want := core.Config{
		NProcs: 4, LogCapacity: workload.ThroughputLogCapacity(4), LogMaxOps: 68,
		ReadFastPath: true, DeltaSnapshots: true,
	}
	if got != want {
		t.Fatalf("coreConfig(4, 64) = %+v, want %+v", got, want)
	}
}
