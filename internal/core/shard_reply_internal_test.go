package core

import (
	"math/rand"
	"strings"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// tamperWorker wraps a real WorkerState and passes every offer and every
// ingest reply through tamper before the coordinator sees them, as a buggy
// or hostile daemon would. It remembers its seed offer, so a tamper can
// replay an entry the shard already offers.
type tamperWorker struct {
	*WorkerState
	seeded []ShardCandidate
	tamper func(w *tamperWorker, cands []ShardCandidate) []ShardCandidate
	// onIngest limits tampering to ingest replies.
	onIngest bool
}

func (t *tamperWorker) Offer(bound *OfferBound) ([]ShardCandidate, Stats, error) {
	cands, stats, err := t.WorkerState.Offer(bound)
	if err != nil {
		return nil, stats, err
	}
	t.seeded = cands
	if !t.onIngest {
		cands = t.tamper(t, cands)
	}
	return cands, stats, nil
}

func (t *tamperWorker) Ingest(b Batch) (IngestReply, error) {
	rep, err := t.WorkerState.Ingest(b)
	if err == nil && t.onIngest {
		rep.Deltas = t.tamper(t, rep.Deltas)
	}
	return rep, err
}

// replyTampers are the reply violations the coordinator must refuse, each
// with the error text that names it.
var replyTampers = []struct {
	name, want string
	tamper     func(w *tamperWorker, cands []ShardCandidate) []ShardCandidate
}{
	{"malformed GR", "malformed", func(w *tamperWorker, cands []ShardCandidate) []ShardCandidate {
		bad := gr.GR{L: gr.Descriptor{{Attr: 40, Val: 1}}, R: gr.D(0, 1)}
		return append(cands, ShardCandidate{GR: bad, Counts: metrics.Counts{LW: 50, LWR: 50}})
	}},
	{"below threshold", "below the shard threshold", func(w *tamperWorker, cands []ShardCandidate) []ShardCandidate {
		low := w.seeded[0]
		low.Counts.LWR = w.minSupp - 1
		return append(cands, low)
	}},
	{"offered twice", "twice", func(w *tamperWorker, cands []ShardCandidate) []ShardCandidate {
		return append(cands, w.seeded[0])
	}},
}

// tamperBuilder places in-process workers, tampering on shard 1 only.
func tamperBuilder(tamper func(*tamperWorker, []ShardCandidate) []ShardCandidate, onIngest bool) WorkerBuilder {
	return func(spec WorkerSpec) (ShardWorker, error) {
		w, err := NewWorkerState(spec)
		if err != nil || spec.Index != 1 {
			return w, err
		}
		return &tamperWorker{WorkerState: w, tamper: tamper, onIngest: onIngest}, nil
	}
}

var replyOpt = Options{MinSupp: 9, MinScore: 0.3, K: 10, DynamicFloor: true}

// TestShardReplySeedRejected: a seed offer the union pool cannot mirror
// fails construction with an error instead of panicking in the merge.
func TestShardReplySeedRejected(t *testing.T) {
	for _, tc := range replyTampers {
		inc, err := NewIncrementalShardedFrom(countsGraph(t, 1), replyOpt, ShardOptions{Shards: 3}, tamperBuilder(tc.tamper, false))
		if err == nil {
			inc.Close()
			t.Fatalf("%s: seed offer accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("%s: error %q does not name the violation and shard", tc.name, err)
		}
	}
}

// TestShardReplyIngestPoisons: an ingest reply the union pool cannot
// mirror fails the batch and poisons the engine, like a failed ingest —
// the worker has already taken the batch.
func TestShardReplyIngestPoisons(t *testing.T) {
	for _, tc := range replyTampers {
		inc, err := NewIncrementalShardedFrom(countsGraph(t, 1), replyOpt, ShardOptions{Shards: 3}, tamperBuilder(tc.tamper, true))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := rand.New(rand.NewSource(5))
		// Enough edges that shard 1 is sure to ingest some.
		_, _, err = inc.ApplyBatch(randomMixedBatch(r, inc.g, 30, 5))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("%s: tampered ingest reply gave %v", tc.name, err)
		}
		if _, _, err := inc.ApplyBatch(randomMixedBatch(r, inc.g, 3, 0)); err == nil || !strings.Contains(err.Error(), "unusable") {
			t.Fatalf("%s: engine not poisoned: %v", tc.name, err)
		}
		inc.Close()
	}
}

// TestShardReplyMineRejected: the batch coordinator's round-1 offers go
// through the same check, so Mine fails instead of panicking.
func TestShardReplyMineRejected(t *testing.T) {
	for _, tc := range replyTampers {
		sc, err := NewShardCoordinatorFrom(countsGraph(t, 1), replyOpt, ShardOptions{Shards: 3}, tamperBuilder(tc.tamper, false))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := sc.Mine(); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("%s: tampered offer gave %v", tc.name, err)
		}
		sc.Close()
	}
}
