package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// noBatch marks spans outside the measured stream (set-up, final checks).
const noBatch = -1

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Batch  int64  `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a per-span count (GRs asked, deltas returned, bytes moved).
	N   int64 `json:"n,omitempty"`
	Err bool  `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one traced pass. A nil *tracer records
// nothing, so untraced code paths stay free of bookkeeping.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// batch is the stream batch in flight; parent the root span calls made
	// now belong to (the closed-loop caller's ApplyBatch, the ingest
	// handler). Both are set by the single caller that owns the stream.
	batch  atomic.Int64
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.batch.Store(noBatch)
	return t
}

// open starts a span under parent and returns it for close.
func (t *tracer) open(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{
		ID:     t.nextID.Add(1),
		Parent: parent,
		Name:   name,
		Batch:  t.batch.Load(),
		Start:  int64(time.Since(t.t0)),
	}
}

// close ends s and records it.
func (t *tracer) close(s span, n int64, err error) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	s.N = n
	s.Err = err != nil
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span timed elsewhere (the daemon connection's hold).
func (t *tracer) add(name string, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	s := span{
		ID:    t.nextID.Add(1),
		Name:  name,
		Batch: t.batch.Load(),
		Start: int64(start.Sub(t.t0)),
		End:   int64(end.Sub(t.t0)),
		N:     n,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) setBatch(b int64) {
	if t != nil {
		t.batch.Store(b)
	}
}

func (t *tracer) setParent(id int64) {
	if t != nil {
		t.parent.Store(id)
	}
}

func (t *tracer) currentParent() int64 {
	if t == nil {
		return 0
	}
	return t.parent.Load()
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
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
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Concurrent children overlap, so
// the covered part is the length of the union of their intervals, never
// the sum of their durations.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}
