package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
	"grminer/internal/serve"
)

// Timing wrappers for a traced pass. Each wraps one layer's public
// interface, records a span per call and forwards every optional interface
// the calling layer type-asserts: hiding one would silently change what the
// program does (turn off checkpointing or failover, or move rule reads from
// pool counts to a scan under the lock).

// slotWorker is what a remote shard slot offers beyond core.ShardWorker:
// checkpointing, restore, and its daemon address for health reports.
type slotWorker interface {
	core.ShardWorker
	core.Checkpointer
	core.Restorer
	Addr() string
}

// tracedWorker times every call the coordinator and its failover
// supervisor make on one shard worker.
type tracedWorker struct {
	inner slotWorker
	shard int
	tr    *tracer
	rec   *recoveryWatch
}

var _ slotWorker = (*tracedWorker)(nil)

func wrapWorker(w core.ShardWorker, shard int, tr *tracer, rec *recoveryWatch) (core.ShardWorker, error) {
	sw, ok := w.(slotWorker)
	if !ok {
		return nil, fmt.Errorf("perfbench: worker %T lacks checkpoint, restore or address support; wrapping it would change failover", w)
	}
	return &tracedWorker{inner: sw, shard: shard, tr: tr, rec: rec}, nil
}

func (w *tracedWorker) NumEdges() int { return w.inner.NumEdges() }
func (w *tracedWorker) Addr() string  { return w.inner.Addr() }
func (w *tracedWorker) Close() error  { return w.inner.Close() }

func (w *tracedWorker) Offer(bound *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	s := w.tr.open("rpc.offer", w.tr.currentParent())
	cands, st, err := w.inner.Offer(bound)
	w.tr.close(s, int64(len(cands)), err)
	w.rec.observe(w.shard, "offer", nil, s, err)
	return cands, st, err
}

func (w *tracedWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	name := w.rec.callName(w.shard, "counts", nil, "rpc.counts")
	s := w.tr.open(name, w.tr.currentParent())
	counts, err := w.inner.Counts(grs)
	w.tr.close(s, int64(len(grs)), err)
	w.rec.observe(w.shard, "counts", nil, s, err)
	return counts, err
}

func (w *tracedWorker) Ingest(b core.Batch) (core.IngestReply, error) {
	name := w.rec.callName(w.shard, "ingest", &b, "rpc.ingest")
	s := w.tr.open(name, w.tr.currentParent())
	rep, err := w.inner.Ingest(b)
	w.tr.close(s, int64(len(rep.Deltas)), err)
	w.rec.observe(w.shard, "ingest", &b, s, err)
	return rep, err
}

func (w *tracedWorker) Checkpoint() ([]byte, error) {
	s := w.tr.open("supervisor.checkpoint", w.tr.currentParent())
	blob, err := w.inner.Checkpoint()
	w.tr.close(s, int64(len(blob)), err)
	return blob, err
}

func (w *tracedWorker) Restore(spec core.WorkerSpec, blob []byte) error {
	s := w.tr.open("worker.restore", w.tr.currentParent())
	err := w.inner.Restore(spec, blob)
	w.tr.close(s, int64(len(blob)), err)
	return err
}

// tracedFleet times worker placement, replacement and restore, and wraps
// every worker it places.
type tracedFleet struct {
	inner core.RestoringBuilder
	tr    *tracer
	rec   *recoveryWatch
}

var _ core.RestoringBuilder = (*tracedFleet)(nil)

func (f *tracedFleet) place(name string, spec core.WorkerSpec, build func() (core.ShardWorker, error)) (core.ShardWorker, error) {
	s := f.tr.open(name, f.tr.currentParent())
	w, err := build()
	f.tr.close(s, 0, err)
	if err != nil {
		return nil, err
	}
	if name != "fleet.build" {
		f.rec.restored(spec.Index)
	}
	tw, err := wrapWorker(w, spec.Index, f.tr, f.rec)
	if err != nil {
		w.Close()
		return nil, err
	}
	return tw, nil
}

func (f *tracedFleet) Build(spec core.WorkerSpec) (core.ShardWorker, error) {
	return f.place("fleet.build", spec, func() (core.ShardWorker, error) { return f.inner.Build(spec) })
}

func (f *tracedFleet) Rebuild(spec core.WorkerSpec) (core.ShardWorker, error) {
	return f.place("recovery.rebuild", spec, func() (core.ShardWorker, error) { return f.inner.Rebuild(spec) })
}

func (f *tracedFleet) RebuildRestore(spec core.WorkerSpec, blob []byte) (core.ShardWorker, error) {
	return f.place("recovery.restore", spec, func() (core.ShardWorker, error) { return f.inner.RebuildRestore(spec, blob) })
}

// recoveryWatch classifies the worker calls around a failover: the call
// that found the worker lost (detect), the placement that restored it, the
// logged batches replayed into the replacement, and the re-issue of the
// failed call.
type recoveryWatch struct {
	mu      sync.Mutex
	pending map[int]*lostCall
}

// lostCall is one shard's failed call awaiting its re-issue.
type lostCall struct {
	op       string
	batch    *core.Batch
	restored bool
}

func newRecoveryWatch() *recoveryWatch { return &recoveryWatch{pending: make(map[int]*lostCall)} }

// callName names the span of a call about to be made on shard.
func (r *recoveryWatch) callName(shard int, op string, b *core.Batch, normal string) string {
	if r == nil {
		return normal
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lc := r.pending[shard]
	if lc == nil || !lc.restored {
		return normal
	}
	if op == lc.op && sameBatch(b, lc.batch) {
		return "recovery.reissue"
	}
	if op == "ingest" {
		return "recovery.replay"
	}
	return normal
}

// observe records a finished call: a lost worker opens a recovery, a
// successful re-issue closes it.
func (r *recoveryWatch) observe(shard int, op string, b *core.Batch, s span, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && workerLost(err) {
		r.pending[shard] = &lostCall{op: op, batch: b}
		return
	}
	if s.Name == "recovery.reissue" {
		delete(r.pending, shard)
	}
}

// restored marks that shard's replacement has been placed.
func (r *recoveryWatch) restored(shard int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if lc := r.pending[shard]; lc != nil {
		lc.restored = true
	}
}

// sameBatch reports whether two routed batches are the same value: the
// supervisor re-issues the very batch that failed, so they share their
// backing arrays.
func sameBatch(a, b *core.Batch) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Ins) != len(b.Ins) || len(a.Del) != len(b.Del) {
		return false
	}
	switch {
	case len(a.Ins) > 0:
		return &a.Ins[0] == &b.Ins[0]
	case len(a.Del) > 0:
		return &a.Del[0] == &b.Del[0]
	default:
		return true
	}
}

// workerLost matches the transport's worker-loss tag, as core does.
func workerLost(err error) bool {
	var lost interface{ WorkerLost() bool }
	return errors.As(err, &lost) && lost.WorkerLost()
}

// tracedEngine times the ApplyBatch calls serve.Server makes.
type tracedEngine struct {
	inner serve.Engine
	tr    *tracer
}

func (e *tracedEngine) ApplyBatch(b core.Batch) (*core.Result, core.IncStats, error) {
	s := e.tr.open("inc.apply", e.tr.currentParent())
	res, st, err := e.inner.ApplyBatch(b)
	e.tr.close(s, int64(st.Recounted), err)
	return res, st, err
}

func (e *tracedEngine) Result() *core.Result      { return e.inner.Result() }
func (e *tracedEngine) Options() core.Options     { return e.inner.Options() }
func (e *tracedEngine) Cumulative() core.IncStats { return e.inner.Cumulative() }

// wrapEngine returns a timed engine that satisfies exactly the optional
// serve interfaces (Explainer, FleetReporter) the inner engine does.
func wrapEngine(inner serve.Engine, tr *tracer) serve.Engine {
	base := &tracedEngine{inner: inner, tr: tr}
	exp, isExp := inner.(serve.Explainer)
	fr, isFleet := inner.(serve.FleetReporter)
	switch {
	case isExp && isFleet:
		return struct {
			*tracedEngine
			serve.Explainer
			serve.FleetReporter
		}{base, exp, fr}
	case isExp:
		return struct {
			*tracedEngine
			serve.Explainer
		}{base, exp}
	case isFleet:
		return struct {
			*tracedEngine
			serve.FleetReporter
		}{base, fr}
	default:
		return base
	}
}

// spanHeader carries the client span id, so a handler span can name the
// client request that caused it.
const spanHeader = "Perfbench-Span"

// traceHandler times every request the /v1 handler serves. An ingest
// handler span becomes the parent of the engine's ApplyBatch span.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		name := "serve.read"
		if r.Method == http.MethodPost && r.URL.Path == "/v1/ingest" {
			name = "serve.ingest"
		}
		s := tr.open(name, parent)
		if name == "serve.ingest" {
			tr.setParent(s.ID)
		}
		h.ServeHTTP(w, r)
		tr.close(s, 0, nil)
	})
}

// tracedListener is the daemon-side listener given to rpc.ServeShards; its
// connections count bytes and time how long the daemon holds each request.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

// tracedConn records, per request, the hold time from the moment the
// request was fully read until the reply starts to be written, and the
// bytes read and written. The daemon's session goroutine is the only one
// that reads and writes the connection, and it serves sequentially (read a
// request, handle it, write the reply), so the last read before a write
// completes the request.
type tracedConn struct {
	net.Conn
	tr *tracer

	lastRead time.Time
	reading  bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead, c.reading = time.Now(), true
		c.tr.add("rpc.bytes_in", c.lastRead, c.lastRead, int64(n))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := time.Now()
	if c.reading {
		c.tr.add("worker.hold", c.lastRead, now, 0)
		c.reading = false
	}
	n, err := c.Conn.Write(p)
	c.tr.add("rpc.bytes_out", now, now, int64(n))
	return n, err
}
