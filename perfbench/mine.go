package main

import (
	"bufio"
	"embed"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"grminer"
	"grminer/internal/core"
)

// The mine workload: repeated sequential static GRMiner(k) mines of one
// Pokec-like graph at the paper's default thresholds. All work is in the
// core miner and the store; incremental, sharded, rpc and serve code is
// bypassed.
const (
	mineNodes  = 4000 // × average out-degree 15 = 60k edges
	mineSetups = 25
)

// mineOptions are the paper's defaults: minSupp 50, minNhp 50%, k 100,
// with the dynamic floor of GRMiner(k).
var mineOptions = grminer.Options{MinSupp: 50, MinScore: 0.5, K: 100, DynamicFloor: true}

// pokecConfig is the generator setting every workload derives its graph
// from; only the node count and the seed vary.
func pokecConfig(nodes int, seed int64) grminer.PokecConfig {
	c := grminer.DefaultPokecConfig()
	c.Nodes = nodes
	c.Seed = seed
	return c
}

//go:embed refs
var refsFS embed.FS

func runMine(cfg config, tr *tracer) (*pass, error) {
	g := grminer.Pokec(pokecConfig(mineNodes, cfg.seed))
	schema := g.Schema()
	p := newPass()

	var eng *grminer.Engine
	for i := 0; i < mineSetups; i++ {
		s := tr.open("store.build", 0)
		sw := startSetup()
		e, err := grminer.Open(g, grminer.EngineConfig{Options: mineOptions})
		wall, cpu := sw.elapsed()
		tr.close(s, 0, err)
		if err != nil {
			return nil, fmt.Errorf("mine: open: %w", err)
		}
		p.setup = append(p.setup, cpu)
		p.setupWall = append(p.setupWall, wall)
		eng = e
	}
	defer eng.Close()

	want, source, err := mineReference(cfg.seed, g)
	if err != nil {
		return nil, err
	}

	var first *core.Result
	deadline := time.Now().Add(cfg.span())
	for i := int64(0); i <= tailBeyond || time.Now().Before(deadline); i++ {
		tr.setBatch(i)
		s := tr.open("mine", 0)
		sw := startWatch()
		res, err := eng.Mine()
		d, c := sw.elapsed()
		tr.close(s, 0, err)
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		p.ops = append(p.ops, d)
		p.opCPU = append(p.opCPU, c)
		if diff := diffRules(rulesOf(res.TopK, schema), want); diff != "" {
			p.problem("mine %d differs from the %s reference: %s", i, source, diff)
		}
		if first == nil {
			first = res
		}
	}
	tr.setBatch(noBatch)
	p.heapMB = liveHeapMB()
	runtime.KeepAlive(eng)

	if first != nil {
		st := first.Stats
		p.layer["miner.examined"] = float64(st.Examined)
		p.layer["miner.candidates"] = float64(st.Candidates)
		p.layer["miner.blocked"] = float64(st.Blocked)
		p.layer["miner.pruned_supp"] = float64(st.PrunedSupp)
		p.layer["miner.pruned_score"] = float64(st.PrunedScore)
		p.layer["miner.hom_scans"] = float64(st.HomScans)
		p.layer["miner.partition_calls"] = float64(st.PartitionCalls)
		if st.Examined > 0 {
			p.layer["miner.yield"] = float64(st.Candidates) / float64(st.Examined)
		}
		p.signature = fmt.Sprintf("topk=%016x", digest(rulesOf(first.TopK, schema)))
	}
	if tr != nil {
		ss := newSpanStats(tr)
		p.layer["store.build_ms"] = medianMs(ss.durations("store.build", false, nil))
	}
	return p, nil
}

// mineReference returns the expected top-k for a seed: the committed
// reference when one was recorded, else a live mine by the parallel engine
// (a separate code path whose dynamic floor forces exact generality).
func mineReference(seed int64, g *grminer.Graph) ([]rule, string, error) {
	f, err := refsFS.Open(refPath(seed))
	if err == nil {
		defer f.Close()
		rs, err := readRules(f)
		if err != nil {
			return nil, "", fmt.Errorf("mine: reference for seed %d: %w", seed, err)
		}
		return rs, "committed", nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, "", err
	}
	opt := mineOptions
	opt.Parallelism = 2
	res, err := core.Mine(g, opt)
	if err != nil {
		return nil, "", fmt.Errorf("mine: live reference: %w", err)
	}
	return rulesOf(res.TopK, g.Schema()), "live parallel", nil
}

func refPath(seed int64) string { return fmt.Sprintf("refs/mine-%d.tsv", seed) }

// readRules parses a reference file: one "supp<TAB>score<TAB>GR" line per
// rank, best first; lines starting with # are comments.
func readRules(r io.Reader) ([]rule, error) {
	var out []rule
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		supp, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, err
		}
		score, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, rule{GR: parts[2], Supp: supp, Score: score})
	}
	return out, sc.Err()
}

// writeRules renders rs in the reference format.
func writeRules(w io.Writer, header string, rs []rule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", header)
	for _, r := range rs {
		fmt.Fprintf(bw, "%d\t%s\t%s\n", r.Supp, strconv.FormatFloat(r.Score, 'g', -1, 64), r.GR)
	}
	return bw.Flush()
}

// recordRefs mines every seed of a range such as "0-24" and writes its
// reference under perfbench/refs, after checking it against the
// in-process sharded engine. Run it from the repository root.
func recordRefs(span string, w io.Writer) error {
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		hi = lo
	}
	from, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return fmt.Errorf("record-refs: %w", err)
	}
	to, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return fmt.Errorf("record-refs: %w", err)
	}
	for seed := from; seed <= to; seed++ {
		g := grminer.Pokec(pokecConfig(mineNodes, seed))
		e, err := grminer.Open(g, grminer.EngineConfig{Options: mineOptions})
		if err != nil {
			return err
		}
		res, err := e.Mine()
		if err != nil {
			return err
		}
		got := rulesOf(res.TopK, g.Schema())
		sh, err := grminer.Open(g, grminer.EngineConfig{Options: mineOptions, Shard: grminer.ShardOptions{Shards: 2}})
		if err != nil {
			return err
		}
		shRes, err := sh.Mine()
		if err != nil {
			return err
		}
		if diff := diffRules(rulesOf(shRes.TopK, g.Schema()), got); diff != "" {
			return fmt.Errorf("record-refs: seed %d: the sharded engine disagrees: %s", seed, diff)
		}
		path := filepath.Join("perfbench", refPath(seed))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		header := fmt.Sprintf("mine workload, seed %d: %d nodes, %d edges, minSupp %d, minNhp %v, k %d; cross-checked against the 2-shard in-process engine",
			seed, g.NumNodes(), g.NumEdges(), mineOptions.MinSupp, mineOptions.MinScore, mineOptions.K)
		if err := writeRules(f, header, got); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "recorded %s (%d rules)\n", path, len(got))
	}
	return nil
}
