package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a pushed slot, a chunk request) share rid; parent is the id of
// the span that caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	RID    int64  `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span id before the span ends, so children can name it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span.
func (t *tracer) record(id, parent, rid int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, RID: rid, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", n, path)
	return nil
}
