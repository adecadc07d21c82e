// Command perfbench is grminer's benchmark. It runs one workload — a
// static mine, a served ingest/read stream, or a remote sharded fleet — for
// a fixed time, checks every answer against an independent reference, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload mine --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json.
// With --trace 1 the workload runs twice from a fresh set-up, first untraced
// and then with timing wrappers at every layer boundary; the result carries
// the per-layer metrics derived from the traced pass's spans, plus the
// tracing overhead between the two passes, and writes the spans under
// .bench_build/perfbench. LAYERS.md maps each per-layer metric
// to the end-to-end metric it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	out      string
}

func (c config) span() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// pass is everything one run of a workload measured.
type pass struct {
	// setup holds the process CPU time of each repeated engine
	// construction, setupWall its wall-clock time.
	setup, setupWall latencies
	// ops are the workload's unit of work: one mine, one ingest batch
	// timed from its due time, or one remote ApplyBatch.
	ops latencies
	// opCPU is the process CPU time each op used, all threads.
	opCPU latencies
	// reads are the served read stream's latencies from their due times.
	reads latencies
	// late is the open-loop generators' own lateness.
	late latencies
	// recovery is the remote workload's kill-drill overhead.
	recovery    time.Duration
	hasRecovery bool

	heapMB            float64
	attempted, failed int
	// problems lists every exactness check that failed.
	problems []string
	// signature captures the failover and serving decisions a timing
	// wrapper could change if it hid an optional interface; the traced
	// and untraced passes must agree on it.
	signature string
	// layer holds per-layer numbers: counts gathered from results in any
	// pass, and span-derived times in a traced pass.
	layer map[string]float64
}

func newPass() *pass { return &pass{layer: make(map[string]float64)} }

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner. tr is nil in an
// untraced pass.
var workloads = map[string]func(cfg config, tr *tracer) (*pass, error){
	"mine":   runMine,
	"serve":  runServe,
	"remote": runRemote,
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traced int
	var record string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: mine, serve or remote")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured stream runs")
	fs.IntVar(&traced, "trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory the traced pass writes its spans to")
	fs.StringVar(&record, "record-refs", "", "record committed mine references for a seed range such as 0-24, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if record != "" {
		if err := recordRefs(record, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want mine, serve or remote)\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || traced < 0 || traced > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	m := machineLabel()
	fmt.Fprintf(stdout, "machine: %s\n", m)
	res, summary, err := measure(cfg, wl, traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range summary {
		fmt.Fprintln(stdout, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload once untraced and, for a traced run, once more
// traced, and assembles the result line plus human-readable notes.
func measure(cfg config, wl func(config, *tracer) (*pass, error), traced bool) (result, []string, error) {
	plain, err := wl(cfg, nil)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: len(plain.problems) == 0, Attempted: plain.attempted, Failed: plain.failed}
	var notes []string
	for _, p := range plain.problems {
		notes = append(notes, "WRONG: "+p)
	}
	notes = append(notes, describe("untraced", plain)...)
	if !traced {
		res.Metrics = endToEnd(plain)
		return res, notes, nil
	}

	tr := newTracer()
	tp, err := wl(cfg, tr)
	if err != nil {
		return result{}, nil, err
	}
	spanPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spanPath); err != nil {
		return result{}, nil, err
	}
	notes = append(notes, describe("traced", tp)...)
	notes = append(notes, "spans: "+spanPath)
	for _, p := range tp.problems {
		notes = append(notes, "WRONG (traced): "+p)
	}
	res.Correct = res.Correct && len(tp.problems) == 0
	if plain.signature != tp.signature {
		res.Correct = false
		notes = append(notes, fmt.Sprintf("WRONG: traced pass changed the program's decisions: untraced %q, traced %q", plain.signature, tp.signature))
	}
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Metrics = perLayer(plain, tp)
	return res, notes, nil
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) map[string]metric {
	return map[string]metric{
		"setup_s":      {p.setup.median().Seconds(), "s"},
		"live_heap_mb": {p.heapMB, "MB"},
		"op_cpu_ms":    {ms(p.opCPU.median()), "ms"},
	}
}

// perLayer assembles the per-layer metrics: span-derived numbers from the
// traced pass, the untraced pass's own distributions (tails, reads,
// recovery), and the tracing overhead between the two.
func perLayer(plain, tp *pass) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := plain.layer[lm.name]
		if !ok {
			v = tp.layer[lm.name]
		}
		out[lm.name] = metric{v, lm.unit}
	}
	set := func(name string, v float64) {
		out[name] = metric{v, unitOf(name)}
	}
	set("op_p50_ms", ms(plain.ops.median()))
	set("op_tail_ms", ms(plain.ops.tailOrMax()))
	set("op_samples", float64(len(plain.ops)))
	if len(plain.reads) > 0 {
		set("read_p50_ms", ms(plain.reads.median()))
		if t, _, ok := plain.reads.tail(); ok {
			set("read_tail_ms", ms(t))
		}
	}
	set("read_samples", float64(len(plain.reads)))
	if plain.hasRecovery {
		set("recovery_overhead_s", plain.recovery.Seconds())
	}
	if t, _, ok := plain.late.tail(); ok {
		set("loadgen.late_p99_ms", ms(t))
	}
	if base := plain.opCPU.median(); base > 0 {
		set("trace.overhead_pct", 100*(float64(tp.opCPU.median())/float64(base)-1))
	}
	return out
}

// describe renders one pass for the log lines above the result.
func describe(label string, p *pass) []string {
	lines := []string{fmt.Sprintf("%s: setup median %.4fs CPU, %.4fs wall, over %d; live heap %.2f MB; %d attempted, %d failed",
		label, p.setup.median().Seconds(), p.setupWall.median().Seconds(), len(p.setup), p.heapMB, p.attempted, p.failed)}
	dist := func(name string, l latencies) {
		if len(l) == 0 {
			return
		}
		line := fmt.Sprintf("%s: %s p50 %.3fms", label, name, ms(l.median()))
		if t, pct, ok := l.tail(); ok {
			line += fmt.Sprintf(", p%.1f %.3fms", pct, ms(t))
		} else {
			line += fmt.Sprintf(", no tail (%d samples, need >%d)", len(l), tailBeyond)
		}
		lines = append(lines, line+fmt.Sprintf(", n=%d", len(l)))
	}
	dist("op", p.ops)
	dist("op cpu", p.opCPU)
	dist("read", p.reads)
	if p.hasRecovery {
		lines = append(lines, fmt.Sprintf("%s: recovery overhead %.4fs", label, p.recovery.Seconds()))
	}
	if p.signature != "" {
		lines = append(lines, fmt.Sprintf("%s: decisions %s", label, p.signature))
	}
	return lines
}

// machineLabel names the machine a result came from.
func machineLabel() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric in BENCHMARK.json order; a
// traced run reports all of them, 0 where the workload bypasses the layer.
// Units ending in ".exact" mark counts that repeat exactly for a seed.
var layerMetrics = []layerMetric{
	{"store.build_ms", "ms"},
	{"miner.examined", "count.exact"},
	{"miner.candidates", "count.exact"},
	{"miner.blocked", "count.exact"},
	{"miner.pruned_supp", "count.exact"},
	{"miner.pruned_score", "count.exact"},
	{"miner.hom_scans", "count.exact"},
	{"miner.partition_calls", "count.exact"},
	{"miner.yield", "ratio.exact"},
	{"inc.apply_ms", "ms"},
	{"inc.pool", "count.exact"},
	{"inc.recounted", "count.exact"},
	{"inc.full_remines", "count.exact"},
	{"inc.underflow_remines", "count.exact"},
	{"inc.remine_frac", "ratio.exact"},
	{"serve.ingest_self_ms", "ms"},
	{"serve.read_handler_ms", "ms"},
	{"serve.read_wait_ms", "ms"},
	{"serve.rules_scan_frac", "ratio"},
	{"coord.self_ms", "ms"},
	{"coord.pool", "count.exact"},
	{"coord.overhead_x", "x"},
	{"reference.apply_ms", "ms"},
	{"rpc.offer_rtt_ms", "ms"},
	{"rpc.counts_rtt_ms", "ms"},
	{"rpc.ingest_rtt_ms", "ms"},
	{"rpc.counts_grs", "count.exact"},
	{"rpc.ingest_deltas", "count.exact"},
	{"rpc.bytes_out", "B/batch.exact"},
	{"rpc.bytes_in", "B/batch.exact"},
	{"worker.hold_ms", "ms"},
	{"rpc.transport_ms", "ms"},
	{"supervisor.checkpoints", "count.exact"},
	{"supervisor.checkpoint_ms", "ms"},
	{"supervisor.checkpoint_bytes", "B.exact"},
	{"recovery.detect_ms", "ms"},
	{"recovery.restore_ms", "ms"},
	{"recovery.replay_ms", "ms"},
	{"recovery.reissue_ms", "ms"},
	{"recovery.replayed_batches", "count.exact"},
	{"fleet.retries", "count.exact"},
	{"recovery_overhead_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"op_samples", "count"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"read_samples", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func unitOf(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}

// spanStats groups a traced pass's spans for the workloads' per-layer
// derivations.
type spanStats struct {
	spans []span
	self  map[int64]time.Duration
}

func newSpanStats(tr *tracer) *spanStats {
	spans := tr.snapshot()
	return &spanStats{spans: spans, self: selfTimes(spans)}
}

// durations returns the durations (or self times) of spans named name
// whose batch passes keep.
func (s *spanStats) durations(name string, self bool, keep func(span) bool) latencies {
	var out latencies
	for _, sp := range s.spans {
		if sp.Name != name || (keep != nil && !keep(sp)) {
			continue
		}
		if self {
			out = append(out, s.self[sp.ID])
		} else {
			out = append(out, sp.dur())
		}
	}
	return out
}

// meanN is the mean of N over spans named name whose batch passes keep.
func (s *spanStats) meanN(name string, keep func(span) bool) float64 {
	var sum, n float64
	for _, sp := range s.spans {
		if sp.Name == name && (keep == nil || keep(sp)) {
			sum += float64(sp.N)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// count is how many spans named name pass keep.
func (s *spanStats) count(name string, keep func(span) bool) int {
	n := 0
	for _, sp := range s.spans {
		if sp.Name == name && (keep == nil || keep(sp)) {
			n++
		}
	}
	return n
}

// sumN totals N over spans named name whose batch passes keep.
func (s *spanStats) sumN(name string, keep func(span) bool) int64 {
	var sum int64
	for _, sp := range s.spans {
		if sp.Name == name && (keep == nil || keep(sp)) {
			sum += sp.N
		}
	}
	return sum
}

// medianMs is the median of ls in milliseconds, 0 for none.
func medianMs(ls latencies) float64 {
	if len(ls) == 0 {
		return 0
	}
	return ms(ls.median())
}

// sortedKeys is used for stable signature strings.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
