package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// countsGraph is a random graph with two homophily attributes (so Hom has
// β sets to count), null values, and enough edges for one mixed batch on a
// shard to cross the store's compaction threshold.
func countsGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: true},
			{Name: "B", Domain: 4, Homophily: true},
			{Name: "C", Domain: 2},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(5)), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 400; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// countsSpec builds shard 0 of a 2-shard deployment over countsGraph.
func countsSpec(t testing.TB, seed int64, m metrics.Metric, noPostings bool) WorkerSpec {
	t.Helper()
	g := countsGraph(t, seed)
	opt := Options{MinSupp: 6, MinScore: 0.1, K: 10, Metric: m, NoPostingLists: noPostings}
	opt, so, err := normalizeSharded(g, opt, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return buildWorkerSpec(g, opt, planFromParts(opt, so, parts), parts[0], 0)
}

// randomDescriptor draws a valid descriptor over attrs: each attribute
// constrained with probability p, to a non-null value in its domain.
func randomDescriptor(r *rand.Rand, attrs []graph.Attribute, p float64) gr.Descriptor {
	var d gr.Descriptor
	for a := range attrs {
		if r.Float64() < p {
			d = d.With(a, graph.Value(1+r.Intn(attrs[a].Domain)))
		}
	}
	return d
}

// countsProbes returns the GRs a Counts oracle asks beside the worker's
// pool: every single-condition RHS with an empty L∧W (which must count LW
// as the whole shard), the same under one edge condition, and random GRs —
// many with β sets, many absent from any pool.
func countsProbes(r *rand.Rand, schema *graph.Schema) []gr.GR {
	var out []gr.GR
	for a := range schema.Node {
		for v := 1; v <= schema.Node[a].Domain; v++ {
			rhs := gr.Descriptor{}.With(a, graph.Value(v))
			out = append(out, gr.GR{R: rhs}, gr.GR{W: gr.Descriptor{}.With(0, 1), R: rhs})
		}
	}
	for len(out) < 120 {
		rhs := randomDescriptor(r, schema.Node, 0.4)
		if len(rhs) == 0 {
			continue
		}
		out = append(out, gr.GR{
			L: randomDescriptor(r, schema.Node, 0.5),
			W: randomDescriptor(r, schema.Edge, 0.3),
			R: rhs,
		})
	}
	return out
}

// poolGRs lists the worker's maintained pool in key order.
func poolGRs(w *WorkerState) []gr.GR {
	keys := make([]string, 0, len(w.pool))
	for k := range w.pool {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]gr.GR, len(keys))
	for i, k := range keys {
		out[i] = w.pool[k].gr
	}
	return out
}

// randomMixedBatch inserts ins random edges and retracts del random live
// ones of the worker's private graph.
func randomMixedBatch(r *rand.Rand, g *graph.Graph, ins, del int) Batch {
	var b Batch
	for i := 0; i < ins; i++ {
		b.Ins = append(b.Ins, EdgeInsert{
			Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes()),
			Vals: []graph.Value{graph.Value(r.Intn(3))},
		})
	}
	var live []int
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if del > len(live) {
		del = len(live)
	}
	for _, e := range live[:del] {
		b.Del = append(b.Del, EdgeDelete{
			Src: g.Src(e), Dst: g.Dst(e),
			Vals: append([]graph.Value(nil), g.EdgeValues(e)...),
		})
	}
	return b
}

// checkCountsOracle asserts the worker's Counts equals the row scan for
// every GR.
func checkCountsOracle(t *testing.T, label string, w *WorkerState, grs []gr.GR) []metrics.Counts {
	t.Helper()
	got, err := w.Counts(grs)
	if err != nil {
		t.Fatalf("%s: Counts: %v", label, err)
	}
	for i, g := range grs {
		if want := countOnStore(w.st, w.metric, g); got[i] != want {
			t.Fatalf("%s: %s: Counts %+v, row scan %+v", label, g.Key(), got[i], want)
		}
	}
	return got
}

// TestWorkerCountsMatchScan is the round-2 oracle: bitmap-backed Counts
// must equal the countOnStore row scan for every pool GR and for probes
// with empty L∧W, under a metric reading Hom (nhp), one reading R (lift)
// and one reading neither (conf) — after the seed, after every mixed batch
// (one of which crosses a store compaction), on a worker restored from a
// checkpoint, and on a NoPostingLists worker fed the same batches.
func TestWorkerCountsMatchScan(t *testing.T) {
	for _, m := range []metrics.Metric{metrics.NhpMetric, metrics.LiftMetric, metrics.ConfMetric} {
		for seed := int64(1); seed <= 3; seed++ {
			label := m.Name
			spec := countsSpec(t, seed, m, false)
			w, err := NewWorkerState(spec)
			if err != nil {
				t.Fatal(err)
			}
			scanSpec := countsSpec(t, seed, m, true)
			scan, err := NewWorkerState(scanSpec)
			if err != nil {
				t.Fatal(err)
			}
			if scan.st.PostingsEnabled() {
				t.Fatal("NoPostingLists worker built posting lists")
			}
			for _, wk := range []*WorkerState{w, scan} {
				if _, _, err := wk.Offer(nil); err != nil {
					t.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(seed * 31))
			probes := countsProbes(r, w.g.Schema())
			check := func(step string) {
				grs := append(poolGRs(w), probes...)
				got := checkCountsOracle(t, label+" "+step, w, grs)
				if fromScan := checkCountsOracle(t, label+" "+step+" (no postings)", scan, grs); !reflect.DeepEqual(got, fromScan) {
					t.Fatalf("%s %s: posting and NoPostingLists workers disagree", label, step)
				}
			}
			check("seed")
			compacted := false
			for b := 0; b < 6; b++ {
				del := 8
				if b == 3 {
					del = w.NumEdges() / 2 // crosses dead ≥ rows/4 within the batch
				}
				batch := randomMixedBatch(r, w.g, 12, del)
				for _, wk := range []*WorkerState{w, scan} {
					if _, err := wk.Ingest(batch); err != nil {
						t.Fatalf("%s batch %d: %v", label, b, err)
					}
				}
				if b == 3 && w.st.NumRows() == w.st.NumEdges() {
					compacted = true
				}
				check("batch")
			}
			if !compacted {
				t.Fatalf("%s seed %d: the large batch did not compact the store", label, seed)
			}

			blob, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewWorkerStateFromCheckpoint(spec, blob)
			if err != nil {
				t.Fatal(err)
			}
			grs := append(poolGRs(w), probes...)
			want := checkCountsOracle(t, label+" live", w, grs)
			if got := checkCountsOracle(t, label+" restored", restored, grs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: restored worker's Counts differ from the original's", label)
			}
		}
	}
}

// TestWorkerCountsRejectsMalformedGR: round-2 GRs come off the wire, so a GR
// outside the schema must fail the call with an error — never index past a
// posting table or the store's value rows — and leave the worker serving.
func TestWorkerCountsRejectsMalformedGR(t *testing.T) {
	for _, noPostings := range []bool{false, true} {
		spec := countsSpec(t, 1, metrics.NhpMetric, noPostings)
		w, err := NewWorkerState(spec)
		if err != nil {
			t.Fatal(err)
		}
		good := gr.GR{L: gr.Descriptor{{Attr: 0, Val: 1}}, R: gr.Descriptor{{Attr: 1, Val: 2}}}
		bad := []gr.GR{
			{L: gr.Descriptor{{Attr: 40, Val: 1}}, R: gr.Descriptor{{Attr: 1, Val: 2}}},
			{R: gr.Descriptor{{Attr: 0, Val: 9}}},
			{W: gr.Descriptor{{Attr: 1, Val: 1}}, R: gr.Descriptor{{Attr: 0, Val: 1}}},
			{L: gr.Descriptor{{Attr: 0, Val: 0}}, R: gr.Descriptor{{Attr: 1, Val: 1}}},
			{L: gr.Descriptor{{Attr: 0, Val: 1}}},
			{L: gr.Descriptor{{Attr: -1, Val: 1}}, R: gr.Descriptor{{Attr: 1, Val: 1}}},
		}
		for _, g := range bad {
			if out, err := w.Counts([]gr.GR{good, g}); err == nil {
				t.Fatalf("postings=%v: malformed GR %+v counted as %+v", !noPostings, g, out)
			}
		}
		checkCountsOracle(t, "after rejections", w, []gr.GR{good})
	}
}

// FuzzWorkerCounts sends arbitrary GRs to a small worker that has ingested
// insertions and retractions. Every 3 input bytes are one condition (side,
// attribute, value — signed, so out-of-range attributes occur). A valid GR
// must count exactly as the row scan does; an invalid one must be an
// error, never a panic.
func FuzzWorkerCounts(f *testing.F) {
	f.Add([]byte{0, 40, 1, 2, 1, 2})            // LHS attribute 40: out of range
	f.Add([]byte{0, 0, 1, 2, 1, 2})             // A:1 -> B:2
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 2})    // A:1 -w:1-> A:2, a β set
	f.Add([]byte{2, 2, 1})                      // empty L∧W
	f.Add([]byte{2, 1, 0xff, 0, 1, 0, 0, 0, 1}) // value 255, unsorted LHS
	f.Add([]byte{1, 3, 1, 2, 0, 1})             // edge attribute 3
	f.Add([]byte{})                             // empty RHS
	spec := countsSpec(f, 5, metrics.NhpMetric, false)
	w, err := NewWorkerState(spec)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		f.Fatal(err)
	}
	if _, err := w.Ingest(randomMixedBatch(rand.New(rand.NewSource(5)), w.g, 10, 10)); err != nil {
		f.Fatal(err)
	}
	schema := w.g.Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		var g gr.GR
		for i := 0; i+2 < len(data); i += 3 {
			c := gr.Cond{Attr: int(int8(data[i+1])), Val: graph.Value(data[i+2])}
			switch data[i] % 3 {
			case 0:
				g.L = append(g.L, c)
			case 1:
				g.W = append(g.W, c)
			default:
				g.R = append(g.R, c)
			}
		}
		got, err := w.Counts([]gr.GR{g})
		if g.Valid(schema) != nil {
			if err == nil {
				t.Fatalf("invalid GR %+v counted as %+v", g, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid GR %+v: %v", g, err)
		}
		if want := countOnStore(w.st, w.metric, g); got[0] != want {
			t.Fatalf("%+v: Counts %+v, row scan %+v", g, got[0], want)
		}
	})
}
