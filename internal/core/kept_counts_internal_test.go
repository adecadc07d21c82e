package core

import (
	"math/rand"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// killLost is the transport-loss tag for killWorker.
type killLost struct{}

func (killLost) Error() string    { return "test: worker killed" }
func (killLost) WorkerLost() bool { return true }

// killWorker wraps a real WorkerState with a kill switch: once armed, its
// next operation fails with worker loss, as a torn daemon connection would.
// It logs the round-2 GRs it is asked for in its builder.
type killWorker struct {
	w     *WorkerState
	b     *killBuilder
	idx   int
	armed bool
}

func (k *killWorker) fail() bool {
	armed := k.armed
	k.armed = false
	return armed
}

func (k *killWorker) NumEdges() int { return k.w.NumEdges() }
func (k *killWorker) Close() error  { return k.w.Close() }

func (k *killWorker) Offer(bound *OfferBound) ([]ShardCandidate, Stats, error) {
	if k.fail() {
		return nil, Stats{}, killLost{}
	}
	return k.w.Offer(bound)
}

func (k *killWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	if k.fail() {
		return nil, killLost{}
	}
	for _, g := range grs {
		k.b.asked[k.idx] = append(k.b.asked[k.idx], g.Key())
	}
	return k.w.Counts(grs)
}

func (k *killWorker) Ingest(b Batch) (IngestReply, error) {
	if k.fail() {
		return IngestReply{}, killLost{}
	}
	return k.w.Ingest(b)
}

func (k *killWorker) Checkpoint() ([]byte, error) {
	if k.fail() {
		return nil, killLost{}
	}
	return k.w.Checkpoint()
}

func (k *killWorker) Restore(spec WorkerSpec, blob []byte) error { return k.w.Restore(spec, blob) }

// killBuilder places in-process killWorkers and remembers each shard's
// current one, replacements included, and the GR keys each shard was asked
// to count.
type killBuilder struct {
	byShard  map[int]*killWorker
	asked    [][]string // per shard; workers run concurrently, each appends to its own
	rebuilds int
}

func (b *killBuilder) Build(spec WorkerSpec) (ShardWorker, error) {
	w, err := NewWorkerState(spec)
	if err != nil {
		return nil, err
	}
	kw := &killWorker{w: w, b: b, idx: spec.Index}
	b.byShard[spec.Index] = kw
	return kw, nil
}

func (b *killBuilder) Rebuild(spec WorkerSpec) (ShardWorker, error) {
	b.rebuilds++
	return b.Build(spec)
}

// TestIncrementalShardedKeptCountsOracle is the mirror oracle. It streams
// random insert/retract batches through a 3-shard engine while workers are
// killed and replaced, and after every batch checks the union pool against
// the shards: the GRs offered on shard s are exactly worker s's pool, every
// known count — offered or kept — equals a fresh Counts from its shard's
// current worker, every kept count is below the shard threshold (a shard at
// or above it tracks the entry and offers it), and the top-k equals a fresh
// single-store mine. The workers reply with entrants only, so every other
// count the pool holds was moved, and every demotion derived, by the
// coordinator's own routing. minSupp 9 over 3 shards puts the shard
// threshold at 3, so the merge's bound pass leaves round-2 fetches to keep
// and retractions demote entries.
func TestIncrementalShardedKeptCountsOracle(t *testing.T) {
	type config struct {
		m     metrics.Metric
		score float64
		dyn   bool
	}
	for ci, cfg := range []config{
		{metrics.NhpMetric, 0.3, true},
		{metrics.LiftMetric, 1.05, false},
		{metrics.ConfMetric, 0.3, false},
	} {
		seed := int64(ci + 1)
		so := ShardOptions{Shards: 3, CheckpointInterval: 2}
		build := &killBuilder{byShard: make(map[int]*killWorker), asked: make([][]string, so.Shards)}
		opt := Options{MinSupp: 9, MinScore: cfg.score, K: 10, DynamicFloor: cfg.dyn, Metric: cfg.m}
		inc, err := NewIncrementalShardedFrom(countsGraph(t, seed), opt, so, build)
		if err != nil {
			t.Fatal(err)
		}
		label := cfg.m.Name
		r := rand.New(rand.NewSource(seed * 17))
		kept, kills, demoted := 0, 0, 0
		for b := 0; b < 16; b++ {
			if r.Intn(3) == 0 {
				build.byShard[r.Intn(so.Shards)].armed = true
				kills++
			}
			known := knownPairs(inc)
			offered := offeredPairs(inc)
			clear(build.asked)
			ins, del := 1+r.Intn(12), r.Intn(8)
			if _, _, err := inc.ApplyBatch(randomMixedBatch(r, inc.g, ins, del)); err != nil {
				t.Fatalf("%s batch %d: %v", label, b, err)
			}
			// A count the pool knew is never fetched again while its entry
			// lives on (a retry after a kill re-asks the same request).
			for s, keys := range build.asked {
				for _, key := range keys {
					if u := known[s][key]; u != nil && inc.pool[key] == u {
						t.Fatalf("%s batch %d: shard %d re-asked for %s, whose count the pool held", label, b, s, key)
					}
				}
			}
			kept += checkKeptCounts(t, label, inc, build)
			for s, keys := range offered {
				for key, u := range keys {
					if inc.pool[key] != u || u.state[s] != countOffered {
						demoted++
					}
				}
			}
			for s := range inc.workers {
				pool := build.byShard[s].w.pool
				now := offeredPairs(inc)[s]
				if len(now) != len(pool) {
					t.Fatalf("%s batch %d: shard %d offers %d GRs, its worker tracks %d", label, b, s, len(now), len(pool))
				}
				for key := range pool {
					if now[key] == nil {
						t.Fatalf("%s batch %d: worker %d tracks %s, which the pool does not mark offered", label, b, s, key)
					}
				}
			}
			ref, err := Mine(inc.g, inc.Options())
			if err != nil {
				t.Fatal(err)
			}
			got := inc.Result().TopK
			if len(got) != len(ref.TopK) {
				t.Fatalf("%s batch %d: %d results, fresh mine %d", label, b, len(got), len(ref.TopK))
			}
			for i := range got {
				if got[i].GR.Key() != ref.TopK[i].GR.Key() || got[i].Supp != ref.TopK[i].Supp || got[i].Score != ref.TopK[i].Score {
					t.Fatalf("%s batch %d rank %d: got %s supp=%d score=%v, fresh mine %s supp=%d score=%v", label, b, i,
						got[i].GR.Key(), got[i].Supp, got[i].Score, ref.TopK[i].GR.Key(), ref.TopK[i].Supp, ref.TopK[i].Score)
				}
			}
		}
		if kept == 0 {
			t.Fatalf("%s: the engine never kept a count — the oracle checked nothing", label)
		}
		if demoted == 0 {
			t.Fatalf("%s: no offered entry was demoted — the stream never exercised derived demotion", label)
		}
		if kills == 0 || build.rebuilds == 0 {
			t.Fatalf("%s: no worker was replaced (%d kills, %d rebuilds)", label, kills, build.rebuilds)
		}
		if err := inc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// knownPairs maps, per shard, the key of every pool entry whose count for
// that shard is known to the entry itself.
func knownPairs(inc *IncrementalSharded) []map[string]*shardCand {
	out := make([]map[string]*shardCand, len(inc.workers))
	for s := range out {
		out[s] = make(map[string]*shardCand)
		for key, u := range inc.pool {
			if u.state[s] != countUnknown {
				out[s][key] = u
			}
		}
	}
	return out
}

// offeredPairs maps, per shard, the key of every pool entry that shard
// offers.
func offeredPairs(inc *IncrementalSharded) []map[string]*shardCand {
	out := make([]map[string]*shardCand, len(inc.workers))
	for s := range out {
		out[s] = make(map[string]*shardCand)
		for key, u := range inc.pool {
			if u.state[s] == countOffered {
				out[s][key] = u
			}
		}
	}
	return out
}

// checkKeptCounts compares every known union-pool count with a fresh Counts
// from its shard and returns how many kept counts it checked.
func checkKeptCounts(t *testing.T, label string, inc *IncrementalSharded, build *killBuilder) int {
	t.Helper()
	kept := 0
	for s := range inc.workers {
		var grs []gr.GR
		var known []*shardCand
		for _, u := range inc.pool {
			switch u.state[s] {
			case countKept:
				kept++
				if u.per[s].LWR >= inc.plan.ShardMinSupp {
					t.Fatalf("%s: shard %d keeps %s at support %d ≥ the shard threshold %d",
						label, s, u.gr.Key(), u.per[s].LWR, inc.plan.ShardMinSupp)
				}
			case countUnknown:
				continue
			}
			grs = append(grs, u.gr)
			known = append(known, u)
		}
		fresh, err := build.byShard[s].w.Counts(grs)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range known {
			want := fresh[i]
			want.E = u.per[s].E // E is per-shard bookkeeping the merge does not read
			if u.per[s] != want {
				t.Fatalf("%s: shard %d %s (state %d): pool holds %+v, shard counts %+v",
					label, s, u.gr.Key(), u.state[s], u.per[s], fresh[i])
			}
		}
	}
	return kept
}
