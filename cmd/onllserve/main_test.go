package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveOne drives serve() itself: one update and one
// read over an ephemeral loopback listener, then a stop, which must
// drain with both requests counted. It returns the drained server.
func serveOne(t *testing.T) *server.Server {
	t.Helper()
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
	return s
}

// TestServeDrains also pins that without -timings the request path
// captures nothing: a disarmed ring is what gates off the per-request
// clock reads (timingRing.nowNs), so the dump is the header alone.
func TestServeDrains(t *testing.T) {
	s := serveOne(t)
	var sb strings.Builder
	if err := s.DumpTimings(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != server.CSVHeader {
		t.Fatalf("timings captured without -timings:\n%s", got)
	}
}

// TestServeTimingsFlagArmsCapture is the other side: -timings writes
// the served update's full timeline.
func TestServeTimingsFlagArmsCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timings.csv")
	*timingsF = path
	defer func() { *timingsF = "" }()
	serveOne(t)
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 2 || lines[0] != server.CSVHeader {
		t.Fatalf("-timings dump = %q, want the header and one update row", lines)
	}
	for i, col := range strings.Split(lines[1], ",")[6:] {
		if col == "0" {
			t.Fatalf("timeline column %d is 0 in %q: capture armed but a clock read was skipped", 6+i, lines[1])
		}
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
