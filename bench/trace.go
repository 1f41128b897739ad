package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A traced run records spans around the bench's own calls into each
// layer — spans inside the program are a later change. Spans are kept
// in memory and written when the run ends; end-to-end metrics never
// come from a traced run.

// maxSpans bounds what one run retains: enough for every percentile
// the per-layer metrics take, small enough to write in well under a
// second.
const maxSpans = 200000

// span is one timed interval. Spans of one request share Req; Parent
// is the span that caused this one (0 for a root). Times are Unix
// nanoseconds, the clock the server's timing ring stamps.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	dir   string // where write puts the file
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(dir string) *tracer {
	return &tracer{dir: dir, spans: make([]span, 0, maxSpans)}
}

// add records a span and returns its id (0 once the tracer is full).
func (t *tracer) add(parent, req uint64, name string, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return t.next
}

var opSpanNames = [nClasses]string{classRead: "core.read", classUpdate: "core.update", classDelete: "core.update"}

// opSpan records one sampled handle call of worker w; t0 and t1 are
// offsets from start.
func (t *tracer) opSpan(cls, w int, op uint64, start time.Time, t0, t1 time.Duration) {
	base := start.UnixNano()
	t.add(0, uint64(w)<<48|op, opSpanNames[cls], base+t0.Nanoseconds(), base+t1.Nanoseconds())
}

// write stores the spans as JSON lines in the tracer's directory.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(t.dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
