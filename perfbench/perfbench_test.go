package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
	"grminer/internal/serve"
)

func msD(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "coord.apply", Start: 0, End: 100},
		// Two concurrent worker calls overlapping on [30, 40].
		{ID: 2, Parent: 1, Name: "rpc.ingest", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "rpc.ingest", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "rpc.counts", Start: 70, End: 80},
		// Runs past its parent's end; only [90, 100] counts.
		{ID: 5, Parent: 1, Name: "supervisor.checkpoint", Start: 90, End: 120},
		// A grandchild never counts against the grandparent.
		{ID: 6, Parent: 4, Name: "worker.restore", Start: 72, End: 75},
	}
	self := selfTimes(spans)
	// Covered by children: [10, 60] + [70, 80] + [90, 100] = 70 of 100.
	if got := self[1]; got != 30 {
		t.Errorf("parent self time = %d, want 30 (a sum of child durations would give %d)", got, 100-30-30-10-10)
	}
	if got := self[4]; got != 7 {
		t.Errorf("child self time = %d, want 7", got)
	}
	if got := self[2]; got != 30 {
		t.Errorf("leaf self time = %d, want its duration 30", got)
	}
}

func TestCoveredMergesNestedAndTouchingIntervals(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 20, End: 30}, {Start: 0, End: 50}, {Start: 50, End: 60}, {Start: 59, End: 61}}
	if got := covered(parent, kids); got != 61 {
		t.Errorf("covered = %d, want 61", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	set := func(n int) latencies {
		l := make(latencies, n)
		for i := range l {
			l[n-1-i] = time.Duration(i + 1) // unsorted on purpose
		}
		return l
	}
	cases := []struct {
		n       int
		want    time.Duration
		wantPct float64
	}{
		{1000, 990, 99.0}, // p99: samples 991..1000 lie beyond
		{100, 90, 90.0},   // p90
		{11, 1, 100.0 / 11},
	}
	for _, c := range cases {
		got, pct, ok := set(c.n).tail()
		if !ok || got != c.want || pct != c.wantPct {
			t.Errorf("n=%d: tail = %d at p%.2f (ok=%v), want %d at p%.2f", c.n, got, pct, ok, c.want, c.wantPct)
		}
	}
	if _, _, ok := set(10).tail(); ok {
		t.Error("10 samples reported a tail; none has ten samples beyond it")
	}
	if got := (latencies{4, 1, 3, 2}).median(); got != 2 {
		t.Errorf("even median = %d, want 2", got)
	}
}

func TestOpenLoopTimesFromDueAndSeparatesGeneratorLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(v float64) time.Time { return t0.Add(msD(v)) }

	// On schedule: the stream was free before the due time, the generator
	// sent 1ms late, and the reply took 4ms.
	s := account(at(100), at(50), at(101), at(105))
	if s.latency != msD(5) || s.service != msD(4) || s.late != msD(1) {
		t.Errorf("on-time request: %+v", s)
	}
	// Behind: the previous reply came 10ms after this request was due. The
	// wait counts in latency, but not as generator lateness.
	s = account(at(100), at(110), at(110), at(115))
	if s.latency != msD(15) || s.service != msD(5) || s.late != 0 {
		t.Errorf("queued request: %+v", s)
	}

	o := openLoop{interval: 300 * time.Millisecond, span: time.Second}
	if got := o.count(); got != 4 {
		t.Errorf("count = %d, want 4 (due at 0, 300, 600, 900ms)", got)
	}
	o = openLoop{interval: 100 * time.Millisecond, span: 10 * time.Second}
	if got := o.count(); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
}

func TestOpenLoopKeepsScheduleWhenARequestStalls(t *testing.T) {
	o := openLoop{start: time.Now().Add(5 * time.Millisecond), interval: 5 * time.Millisecond, span: 40 * time.Millisecond}
	got := o.run(func(i int) bool {
		if i == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		return false
	})
	if len(got) != 8 {
		t.Fatalf("issued %d requests, want all 8 the schedule holds", len(got))
	}
	// Request 2 was due 5ms after request 1 was sent but could only go out
	// after the 30ms stall: its latency from the due time shows the wait.
	if got[2].latency < 20*time.Millisecond {
		t.Errorf("request after a stall has latency %v, want at least 20ms from its due time", got[2].latency)
	}
	if got[2].service > got[2].latency {
		t.Errorf("service %v exceeds latency %v", got[2].service, got[2].latency)
	}
}

func TestRecoveryOverheadSubtractsNeighbouringBatches(t *testing.T) {
	batch := []time.Duration{msD(10), msD(10), msD(10), msD(50), msD(10), msD(10), msD(10), msD(60), msD(12), msD(12)}
	got, ok := recoveryOverhead(batch, map[int]bool{3: true, 7: true}, 2)
	// Drill 3: 50 - median(10, 10, 10, 10) = 40. Drill 7: 60 - median(10,
	// 10, 12, 12) = 49. The median over drills is 44.5.
	if !ok || got != msD(44.5) {
		t.Errorf("overhead = %v (ok=%v), want 44.5ms", got, ok)
	}
	// Adjacent drills are not each other's baseline.
	got, ok = recoveryOverhead([]time.Duration{msD(10), msD(40), msD(40), msD(10)}, map[int]bool{1: true, 2: true}, 1)
	if !ok || got != msD(30) {
		t.Errorf("adjacent drills: overhead = %v (ok=%v), want 30ms", got, ok)
	}
	if _, ok := recoveryOverhead(batch, nil, 2); ok {
		t.Error("no drills reported an overhead")
	}
}

// fakeEngine is a serve.Engine; the embedding types add optional methods.
type fakeEngine struct{}

func (fakeEngine) ApplyBatch(core.Batch) (*core.Result, core.IncStats, error) {
	return &core.Result{}, core.IncStats{}, nil
}
func (fakeEngine) Result() *core.Result      { return &core.Result{} }
func (fakeEngine) Options() core.Options     { return core.Options{} }
func (fakeEngine) Cumulative() core.IncStats { return core.IncStats{} }

type explainingEngine struct{ fakeEngine }

func (explainingEngine) Explain(gr.GR) (metrics.Counts, bool) { return metrics.Counts{LWR: 7}, true }

type fleetEngine struct{ fakeEngine }

func (fleetEngine) FleetHealth() []core.WorkerHealth { return []core.WorkerHealth{{Shard: 3}} }

type fullEngine struct {
	explainingEngine
	fleetEngine
}

func (fullEngine) ApplyBatch(core.Batch) (*core.Result, core.IncStats, error) {
	return &core.Result{}, core.IncStats{}, nil
}
func (fullEngine) Result() *core.Result      { return &core.Result{} }
func (fullEngine) Options() core.Options     { return core.Options{} }
func (fullEngine) Cumulative() core.IncStats { return core.IncStats{} }

func TestWrapEngineForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	for _, c := range []struct {
		name           string
		inner          serve.Engine
		explain, fleet bool
	}{
		{"plain", fakeEngine{}, false, false},
		{"explainer", explainingEngine{}, true, false},
		{"fleet", fleetEngine{}, false, true},
		{"both", fullEngine{}, true, true},
	} {
		w := wrapEngine(c.inner, newTracer())
		exp, isExp := w.(serve.Explainer)
		fr, isFleet := w.(serve.FleetReporter)
		if isExp != c.explain || isFleet != c.fleet {
			t.Errorf("%s: wrapper Explainer=%v FleetReporter=%v, want %v %v", c.name, isExp, isFleet, c.explain, c.fleet)
		}
		if isExp {
			if counts, ok := exp.Explain(gr.GR{}); !ok || counts.LWR != 7 {
				t.Errorf("%s: Explain not forwarded", c.name)
			}
		}
		if isFleet {
			if hs := fr.FleetHealth(); len(hs) != 1 || hs[0].Shard != 3 {
				t.Errorf("%s: FleetHealth not forwarded", c.name)
			}
		}
	}
}

// fakeSlot stands in for a remote shard slot.
type fakeSlot struct{ restored bool }

func (*fakeSlot) NumEdges() int { return 1 }
func (*fakeSlot) Offer(*core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	return nil, core.Stats{}, nil
}
func (*fakeSlot) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	return make([]metrics.Counts, len(grs)), nil
}
func (*fakeSlot) Ingest(core.Batch) (core.IngestReply, error) { return core.IngestReply{}, nil }
func (*fakeSlot) Close() error                                { return nil }
func (*fakeSlot) Checkpoint() ([]byte, error)                 { return []byte("blob"), nil }
func (s *fakeSlot) Restore(core.WorkerSpec, []byte) error     { s.restored = true; return nil }
func (*fakeSlot) Addr() string                                { return "daemon:1" }

// bareWorker lacks checkpointing.
type bareWorker struct{}

func (bareWorker) NumEdges() int { return 0 }
func (bareWorker) Offer(*core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	return nil, core.Stats{}, nil
}
func (bareWorker) Counts([]gr.GR) ([]metrics.Counts, error)    { return nil, nil }
func (bareWorker) Ingest(core.Batch) (core.IngestReply, error) { return core.IngestReply{}, nil }
func (bareWorker) Close() error                                { return nil }

func TestWrapWorkerForwardsCheckpointRestoreAndAddress(t *testing.T) {
	tr := newTracer()
	inner := &fakeSlot{}
	w, err := wrapWorker(inner, 0, tr, newRecoveryWatch())
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := w.(core.Checkpointer)
	if !ok {
		t.Fatal("wrapped worker hides core.Checkpointer: the supervisor would stop checkpointing")
	}
	if blob, err := cp.Checkpoint(); err != nil || string(blob) != "blob" {
		t.Errorf("Checkpoint = %q, %v", blob, err)
	}
	rs, ok := w.(core.Restorer)
	if !ok {
		t.Fatal("wrapped worker hides core.Restorer")
	}
	if err := rs.Restore(core.WorkerSpec{}, nil); err != nil || !inner.restored {
		t.Errorf("Restore not forwarded: %v", err)
	}
	if a, ok := w.(interface{ Addr() string }); !ok || a.Addr() != "daemon:1" {
		t.Error("wrapped worker hides its daemon address from health reports")
	}
	if got := newSpanStats(tr).meanN("supervisor.checkpoint", nil); got != 4 {
		t.Errorf("checkpoint span records %v bytes, want 4", got)
	}
	if _, err := wrapWorker(bareWorker{}, 0, tr, nil); err == nil {
		t.Error("wrapping a worker without checkpoint support succeeded; it must refuse rather than change failover")
	}
	var _ core.RestoringBuilder = &tracedFleet{}
}

// lostErr carries the transport's worker-loss tag.
type lostErr struct{}

func (lostErr) Error() string    { return "connection reset" }
func (lostErr) WorkerLost() bool { return true }

func TestRecoveryWatchNamesReplayAndReissue(t *testing.T) {
	rec := newRecoveryWatch()
	failed := core.Batch{Ins: make([]core.EdgeInsert, 2)}
	logged := core.Batch{Ins: make([]core.EdgeInsert, 2)}
	if got := rec.callName(0, "ingest", &failed, "rpc.ingest"); got != "rpc.ingest" {
		t.Fatalf("before any loss: %s", got)
	}
	rec.observe(0, "ingest", &failed, span{Name: "rpc.ingest"}, errors.Join(errors.New("shard 0"), lostErr{}))
	if got := rec.callName(0, "ingest", &logged, "rpc.ingest"); got != "rpc.ingest" {
		t.Errorf("before the replacement is placed: %s", got)
	}
	rec.restored(0)
	if got := rec.callName(1, "ingest", &logged, "rpc.ingest"); got != "rpc.ingest" {
		t.Errorf("another shard's call: %s", got)
	}
	if got := rec.callName(0, "ingest", &logged, "rpc.ingest"); got != "recovery.replay" {
		t.Errorf("logged batch into the replacement: %s, want recovery.replay", got)
	}
	reissue := failed // the supervisor re-issues the same batch value
	if got := rec.callName(0, "ingest", &reissue, "rpc.ingest"); got != "recovery.reissue" {
		t.Errorf("failed batch re-issued: %s, want recovery.reissue", got)
	}
	rec.observe(0, "ingest", &reissue, span{Name: "recovery.reissue"}, nil)
	if got := rec.callName(0, "ingest", &failed, "rpc.ingest"); got != "rpc.ingest" {
		t.Errorf("after the recovery: %s", got)
	}
}

// TestTracedPassKeepsTheProgramsDecisions runs each stateful workload
// untraced and traced and requires the same failover and serving
// decisions: checkpoint epochs, replacements and replays per shard, and
// where /v1/rules took its counts from.
func TestTracedPassKeepsTheProgramsDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the remote and serve workloads twice each")
	}
	for _, name := range []string{"serve", "remote"} {
		cfg := config{workload: name, seed: 5, seconds: 1, out: t.TempDir()}
		plain, err := workloads[name](cfg, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		traced, err := workloads[name](cfg, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for _, p := range append(plain.problems, traced.problems...) {
			t.Errorf("%s: %s", name, p)
		}
		if plain.signature == "" || plain.signature != traced.signature {
			t.Errorf("%s: decisions differ\nuntraced: %s\ntraced:   %s", name, plain.signature, traced.signature)
		}
		if name == "remote" && plain.layer["recovery.replayed_batches"] == 0 {
			t.Errorf("remote: no replacement replayed anything; the drill did not exercise failover")
		}
	}
}

// TestBenchmarkJSONListsWhatTheRunsReport keeps BENCHMARK.json and the
// program in step: a result line must carry exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestBenchmarkJSONListsWhatTheRunsReport(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, a run reports %d", kind, len(declared), len(got))
		}
		for _, m := range declared {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %q: run reports %+v (present %v), BENCHMARK.json unit %q", kind, m.Name, g, ok, m.Unit)
			}
		}
	}
	p := newPass()
	p.ops = latencies{time.Millisecond}
	p.opCPU = latencies{time.Millisecond}
	p.reads = latencies{time.Millisecond}
	p.late = latencies{time.Millisecond}
	p.hasRecovery = true
	check("end_to_end", spec.EndToEnd, endToEnd(p))
	check("per_layer", spec.PerLayer, perLayer(p, p))
}
