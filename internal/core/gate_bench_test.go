// The bench-gate microbenchmark suite: the allocation budget of the hot
// mine/re-mine paths, enforced by CI (DESIGN.md §7). These benchmarks are
// internal (package core) on purpose — BenchmarkRecount drives the pool
// recount directly, without the batch-validation and assembly layers around
// it — and are designed so every iteration leaves the engine in the state it
// started from: a mixed batch inserts and deletes the same edge multiset, so
// b.N iterations measure a steady state instead of a drifting graph.
//
// CI runs them with fixed iteration counts (-benchtime Nx, -count ≥ 5,
// -benchmem) and cmd/benchgate compares the B/op and allocs/op medians
// against the committed baseline (internal/bench/gate/baseline.txt).
package core

import (
	"sync"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

var (
	gateOnce sync.Once
	gateG    *graph.Graph
	gateSt   *store.Store
	gateOpt  Options
)

// gateFixture builds the shared mining input: a Pokec-like graph small
// enough for minutes-long CI gates but wide enough (6 node attributes, one
// edge attribute) to exercise every descriptor block.
func gateFixture(b *testing.B) {
	b.Helper()
	gateOnce.Do(func() {
		cfg := datagen.DefaultPokecConfig()
		cfg.Nodes = 1500
		cfg.AvgOutDegree = 6
		gateG = datagen.Pokec(cfg)
		gateSt = store.Build(gateG)
		gateOpt = Options{
			MinSupp:      gateG.NumEdges() / 200,
			MinScore:     0.5,
			K:            50,
			DynamicFloor: true,
		}
	})
}

// gateEngine builds a fresh incremental engine over a private copy of the
// fixture graph (engines own and mutate their graph).
func gateEngine(b *testing.B, opt Options) *Incremental {
	b.Helper()
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 1500
	cfg.AvgOutDegree = 6
	g := datagen.Pokec(cfg)
	inc, err := NewIncremental(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	return inc
}

// gateBatch converts edges [from, to) of g into a balanced mixed batch: the
// same edges as insertions and retractions, so applying it is a state
// no-op (retractions resolve against the pre-batch edge set, insertions
// re-add identical edges).
func gateBatch(g *graph.Graph, from, to int) Batch {
	b := Batch{
		Ins: make([]EdgeInsert, 0, to-from),
		Del: make([]EdgeDelete, 0, to-from),
	}
	for e := from; e < to; e++ {
		vals := append([]graph.Value(nil), g.EdgeValues(e)...)
		b.Ins = append(b.Ins, EdgeInsert{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
		b.Del = append(b.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
	}
	return b
}

// BenchmarkApplyBatch is the gate's end-to-end dynamic-path benchmark: one
// mixed batch through Incremental.ApplyBatch, including recount, scoped
// re-mine, and merge. The "compaction" variant deletes (and re-inserts) a
// quarter of the edge set per iteration, so every iteration drives the store
// through a tombstone compaction — the path that used to re-allocate the
// full pool map.
func BenchmarkApplyBatch(b *testing.B) {
	gateFixture(b)
	b.Run("mixed", func(b *testing.B) {
		inc := gateEngine(b, gateOpt)
		batch := gateBatch(gateG, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := inc.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compaction", func(b *testing.B) {
		inc := gateEngine(b, gateOpt)
		// The batch's insertions land before its deletions tombstone, so at
		// deletion time the store holds E+n rows; n = E/3 + 32 tombstones
		// then cross the store's compaction threshold (dead ≥ rows/4, ≥ 32)
		// within the batch, every iteration. The paired insertions restore
		// the edge set for the next iteration.
		n := gateG.NumEdges()/3 + 32
		batch := gateBatch(gateG, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := inc.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecount isolates the per-batch pool maintenance: the tracked-pool
// delta recount (every pool entry matched against the batch rows) plus the
// affected-subtree-key collection that decides the scoped re-mine. Passing
// the same live rows as inserted and doomed leaves every count where it
// started, so iterations are identical work on identical state.
func BenchmarkRecount(b *testing.B) {
	gateFixture(b)
	inc := gateEngine(b, gateOpt)
	rows := make([]int32, 0, 128)
	for e := int32(0); int(e) < inc.st.NumRows() && len(rows) < cap(rows); e++ {
		if inc.st.Alive(e) {
			rows = append(rows, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.recount(rows, rows)
		aff := inc.affected(rows, rows)
		_ = aff
	}
}

// BenchmarkMineStatic is the gate's batch-mine benchmark: a full sequential
// GRMiner(k) run. The nhp variant exercises the blocker tables and homophily
// scans; lift additionally drives the |E(r)| memo (rCounts); exactgen drives
// the ExactGenerality verdict cache.
func BenchmarkMineStatic(b *testing.B) {
	gateFixture(b)
	run := func(b *testing.B, opt Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MineStore(gateSt, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nhp", func(b *testing.B) {
		run(b, gateOpt)
	})
	b.Run("lift", func(b *testing.B) {
		opt := gateOpt
		opt.Metric = metrics.LiftMetric
		opt.MinScore = 1
		opt.DynamicFloor = false
		run(b, opt)
	})
	b.Run("exactgen", func(b *testing.B) {
		opt := gateOpt
		opt.ExactGenerality = true
		run(b, opt)
	})
}

// BenchmarkWorkerCounts is the gate's round-2 benchmark: one batched Counts
// call over every GR of a seeded shard worker's pool, answered from the
// posting bitmaps. The result slice is the call's only allocation, so
// allocs/op stays constant in the number of GRs — any per-GR allocation
// multiplies it by the pool size.
func BenchmarkWorkerCounts(b *testing.B) {
	gateFixture(b)
	opt, so, err := normalizeSharded(gateG, gateOpt, ShardOptions{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := graph.PartitionEdges(gateG, so.Shards, so.Strategy)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorkerState(buildWorkerSpec(gateG, opt, planFromParts(opt, so, parts), parts[0], 0))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		b.Fatal(err)
	}
	grs := make([]gr.GR, 0, len(w.pool))
	for _, t := range w.pool {
		grs = append(grs, t.gr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Counts(grs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkerIngest is the gate's worker-side ingest benchmark: one
// mixed +12/−4 batch into a seeded shard worker of a 4-shard layout —
// recount, scoped re-mine and the entrants-only reply. The spec holds the
// shard's edges minus its last 12, which the batch inserts while retracting
// 4 of the first. After each timed batch the inverse batch (retract the 12,
// re-insert the 4) runs untimed: a worker's pool is exactly the GRs at or
// above the shard threshold, so it returns to the same entries and counts,
// and the next iteration re-applies the batch from the same state.
func BenchmarkWorkerIngest(b *testing.B) {
	gateFixture(b)
	opt, so, err := normalizeSharded(gateG, gateOpt, ShardOptions{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := graph.PartitionEdges(gateG, so.Shards, so.Strategy)
	if err != nil {
		b.Fatal(err)
	}
	part := parts[0]
	w, err := NewWorkerState(buildWorkerSpec(gateG, opt, planFromParts(opt, so, parts), part[:len(part)-12], 0))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		b.Fatal(err)
	}
	var fwd, inv Batch
	edge := func(e32 int32) (int, int, []graph.Value) {
		e := int(e32)
		return gateG.Src(e), gateG.Dst(e), append([]graph.Value(nil), gateG.EdgeValues(e)...)
	}
	for _, e := range part[len(part)-12:] {
		src, dst, vals := edge(e)
		fwd.Ins = append(fwd.Ins, EdgeInsert{Src: src, Dst: dst, Vals: vals})
		inv.Del = append(inv.Del, EdgeDelete{Src: src, Dst: dst, Vals: vals})
	}
	for _, e := range part[:4] {
		src, dst, vals := edge(e)
		fwd.Del = append(fwd.Del, EdgeDelete{Src: src, Dst: dst, Vals: vals})
		inv.Ins = append(inv.Ins, EdgeInsert{Src: src, Dst: dst, Vals: vals})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := w.Ingest(fwd)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Deltas) == 0 {
			b.Fatal("the batch brought no entrant; the reply is not exercised")
		}
		b.StopTimer()
		if _, err := w.Ingest(inv); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
