package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/serve"
	"grminer/internal/serve/apiv1"
	"grminer/internal/store"
)

// The serve workload: the single-store incremental engine behind
// serve.Server on a loopback listener, driven by two open-loop streams on
// one connection each — mixed insert/delete ingest batches, and a read mix
// of wait-free snapshot reads with a small share of /v1/recommend, which
// takes the read lock ingest holds for writing.
const (
	serveNodes   = 800 // 12k edges
	serveSetups  = 5
	ingestEvery  = 200 * time.Millisecond
	readEvery    = 10 * time.Millisecond
	largeEvery   = 4  // every 4th batch is large
	smallIns     = 2  // a small batch inserts 2 edges ...
	smallDel     = 1  // ... and retracts 1
	largeIns     = 48 // a large batch inserts 48 edges ...
	largeDel     = 16 // ... and retracts 16
	recommendPct = 10 // share of reads that are /v1/recommend
	// ruleRanks bounds the ranks /v1/rules/{rank} reads: the head of the
	// list, which every epoch fills (a seed's top-k can hold fewer than k
	// qualifying rules, and a rank past the end is a 404).
	ruleRanks = 20
)

var serveOptions = core.Options{MinSupp: 50, MinScore: 0.5, K: 100, DynamicFloor: true}

// readKind is one request class of the read stream.
type readKind int

const (
	readTopK readKind = iota
	readRule
	readRecommend
)

// readReq is one scheduled read.
type readReq struct {
	kind readKind
	rank int // readRule
	node int // readRecommend
}

// readObs is what one read returned, kept for the exactness check.
type readObs struct {
	req    readReq
	epoch  uint64
	digest uint64 // readTopK: the rule list
	rule   rule   // readRule
	lwr    int    // readRule: the support count the rule was explained by
	source string // readRule: counts_source
	rules  int    // readRecommend: rules applied
	err    string
}

func runServe(cfg config, tr *tracer) (*pass, error) {
	p := newPass()
	gcfg := pokecConfig(serveNodes, cfg.seed)

	var (
		g   *graph.Graph
		inc *core.Incremental
		srv *serve.Server
		ln  net.Listener
	)
	for i := 0; i < serveSetups; i++ {
		gi := datagen.Pokec(gcfg)
		s := tr.open("setup", 0)
		tr.setParent(s.ID)
		sw := startSetup()
		e, err := core.NewIncremental(gi, serveOptions)
		if err != nil {
			return nil, fmt.Errorf("serve: engine: %w", err)
		}
		var eng serve.Engine = e
		if tr != nil {
			eng = wrapEngine(e, tr)
		}
		si := serve.New(eng, gi)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("serve: listen: %w", err)
		}
		wall, cpu := sw.elapsed()
		p.setup = append(p.setup, cpu)
		p.setupWall = append(p.setupWall, wall)
		tr.close(s, 0, nil)
		tr.setParent(0)
		if ln != nil {
			ln.Close()
		}
		g, inc, srv, ln = gi, e, si, l
	}
	if tr != nil {
		gs := datagen.Pokec(gcfg)
		s := tr.open("store.build", 0)
		_ = store.Build(gs)
		tr.close(s, 0, nil)
	}

	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = traceHandler(handler, tr)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	rng := rand.New(rand.NewSource(cfg.seed*7919 + 17))
	ingest := openLoop{interval: ingestEvery, span: cfg.span()}
	reads := openLoop{interval: readEvery, span: cfg.span()}
	batches := serveBatches(rng, g, ingest.count())
	payloads := make([][]byte, len(batches))
	for i, b := range batches {
		data, err := json.Marshal(ingestRequest(b))
		if err != nil {
			return nil, err
		}
		payloads[i] = data
	}
	plan := make([]readReq, reads.count())
	for i := range plan {
		switch {
		case rng.Intn(100) < recommendPct:
			plan[i] = readReq{kind: readRecommend, node: rng.Intn(g.NumNodes())}
		case rng.Intn(2) == 0:
			plan[i] = readReq{kind: readTopK}
		default:
			plan[i] = readReq{kind: readRule, rank: 1 + rng.Intn(ruleRanks)}
		}
	}

	ingestClient, readClient := oneConnClient(), oneConnClient()
	defer ingestClient.CloseIdleConnections()
	defer readClient.CloseIdleConnections()

	var (
		wg                   sync.WaitGroup
		ingestSamples        []sample
		readSamples          []sample
		obs                  = make([]readObs, 0, len(plan))
		ingestFailed, rFails int
		ingestErr            string
	)
	start := time.Now().Add(20 * time.Millisecond)
	ingest.start, reads.start = start, start
	sw := startWatch()
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingestSamples = ingest.run(func(i int) bool {
			tr.setBatch(int64(i))
			s := tr.open("client.ingest", 0)
			var rep apiv1.IngestResponse
			err := post(ingestClient, base+"/v1/ingest", s.ID, payloads[i], &rep)
			tr.close(s, 0, err)
			if err == nil && rep.Epoch != uint64(i+2) {
				err = fmt.Errorf("published epoch %d, want %d", rep.Epoch, i+2)
			}
			if err != nil {
				ingestFailed++
				if ingestErr == "" {
					ingestErr = fmt.Sprintf("ingest batch %d: %v", i, err)
				}
			}
			return false
		})
	}()
	go func() {
		defer wg.Done()
		readSamples = reads.run(func(i int) bool {
			o := doRead(readClient, base, plan[i], tr)
			if o.err != "" {
				rFails++
			}
			obs = append(obs, o)
			return false
		})
	}()
	wg.Wait()
	_, streamCPU := sw.elapsed()
	tr.setBatch(noBatch)
	if err := hs.Close(); err != nil {
		return nil, err
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return nil, fmt.Errorf("serve: http server: %w", err)
	}

	for range ingestSamples {
		p.opCPU = append(p.opCPU, streamCPU/time.Duration(len(ingestSamples)))
	}
	for _, s := range ingestSamples {
		p.ops = append(p.ops, s.latency)
		p.late = append(p.late, s.late)
	}
	for _, s := range readSamples {
		p.reads = append(p.reads, s.latency)
		p.late = append(p.late, s.late)
	}
	p.attempted = len(ingestSamples) + len(readSamples)
	p.failed = ingestFailed + rFails
	if ingestErr != "" {
		p.problem("%s", ingestErr)
	}
	p.heapMB = liveHeapMB()
	runtime.KeepAlive(srv)

	// Exactness, outside the timed streams: every read against the
	// reference for the epoch it reports, then the final snapshot against
	// a fresh single-store mine.
	byEpoch, err := referenceEpochs(gcfg, batches[:len(ingestSamples)])
	if err != nil {
		return nil, err
	}
	sources := map[string]int{}
	for i, o := range obs {
		if o.err != "" {
			p.problem("read %d: %s", i, o.err)
			continue
		}
		if msg := checkRead(o, byEpoch); msg != "" {
			p.problem("read %d (epoch %d): %s", i, o.epoch, msg)
		}
		if o.req.kind == readRule {
			sources[o.source]++
		}
	}
	snap := srv.Snapshot()
	fresh, err := core.Mine(g, inc.Options())
	if err != nil {
		return nil, fmt.Errorf("serve: fresh mine: %w", err)
	}
	if diff := diffRules(rulesOf(snap.TopK, g.Schema()), rulesOf(fresh.TopK, g.Schema())); diff != "" {
		p.problem("final snapshot (epoch %d) differs from a fresh single-store mine: %s", snap.Epoch, diff)
	}

	sig := ""
	for _, k := range sortedKeys(sources) {
		sig += fmt.Sprintf("counts_source.%s=%d ", k, sources[k])
	}
	p.signature = sig + fmt.Sprintf("epoch=%d", snap.Epoch)
	if n := sources["pool"] + sources["scan"]; n > 0 {
		p.layer["serve.rules_scan_frac"] = float64(sources["scan"]) / float64(n)
	}
	cum := snap.Cumulative
	p.layer["inc.pool"] = float64(cum.Tracked)
	if cum.Batches > 0 {
		p.layer["inc.recounted"] = float64(cum.Recounted) / float64(cum.Batches)
	}
	p.layer["inc.full_remines"] = float64(cum.FullRemines)
	p.layer["inc.underflow_remines"] = float64(cum.UnderflowRemines)
	if cum.SubtreesTotal > 0 {
		p.layer["inc.remine_frac"] = float64(cum.SubtreesRemined) / float64(cum.SubtreesTotal)
	}
	if tr != nil {
		ss := newSpanStats(tr)
		p.layer["store.build_ms"] = medianMs(ss.durations("store.build", false, nil))
		p.layer["inc.apply_ms"] = medianMs(ss.durations("inc.apply", false, nil))
		p.layer["serve.ingest_self_ms"] = medianMs(ss.durations("serve.ingest", true, nil))
		p.layer["serve.read_handler_ms"] = medianMs(ss.durations("serve.read", false, nil))
		p.layer["serve.read_wait_ms"] = medianMs(ss.durations("client.read", true, nil))
	}
	return p, nil
}

// serveBatches generates n ingest batches: every largeEvery-th is large,
// the rest small; each retracts the oldest edges earlier batches inserted,
// so every retraction matches a live edge.
func serveBatches(rng *rand.Rand, g *graph.Graph, n int) []core.Batch {
	var live []core.EdgeInsert
	out := make([]core.Batch, n)
	for i := range out {
		ins, del := smallIns, smallDel
		if i%largeEvery == largeEvery-1 {
			ins, del = largeIns, largeDel
		}
		out[i], live = mixedBatch(rng, g, live, ins, del)
	}
	return out
}

// mixedBatch draws ins random edges and retracts up to del of the oldest
// live ones; it returns the batch and the remaining live list.
func mixedBatch(rng *rand.Rand, g *graph.Graph, live []core.EdgeInsert, ins, del int) (core.Batch, []core.EdgeInsert) {
	var b core.Batch
	for d := 0; d < del && len(live) > 0; d++ {
		e := live[0]
		live = live[1:]
		b.Del = append(b.Del, core.EdgeDelete{Src: e.Src, Dst: e.Dst, Vals: e.Vals})
	}
	for k := 0; k < ins; k++ {
		e := core.EdgeInsert{Src: rng.Intn(g.NumNodes()), Dst: rng.Intn(g.NumNodes())}
		for _, attr := range g.Schema().Edge {
			e.Vals = append(e.Vals, graph.Value(1+rng.Intn(attr.Domain)))
		}
		b.Ins = append(b.Ins, e)
		live = append(live, e)
	}
	return b, live
}

func ingestRequest(b core.Batch) apiv1.IngestRequest {
	var req apiv1.IngestRequest
	edge := func(src, dst int, vals []graph.Value) apiv1.IngestEdge {
		e := apiv1.IngestEdge{Src: src, Dst: dst}
		for _, v := range vals {
			e.Vals = append(e.Vals, int(v))
		}
		return e
	}
	for _, e := range b.Ins {
		req.Ins = append(req.Ins, edge(e.Src, e.Dst, e.Vals))
	}
	for _, e := range b.Del {
		req.Del = append(req.Del, edge(e.Src, e.Dst, e.Vals))
	}
	return req
}

// oneConnClient is an HTTP client that keeps a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// doRead issues one scheduled read and decodes what the check needs.
func doRead(client *http.Client, base string, req readReq, tr *tracer) readObs {
	o := readObs{req: req}
	s := tr.open("client.read", 0)
	var err error
	switch req.kind {
	case readTopK:
		var r apiv1.TopKResponse
		err = get(client, base+"/v1/topk", s.ID, &r)
		tr.close(s, 0, err)
		if err == nil {
			o.epoch = r.Epoch
			rs := make([]rule, len(r.Rules))
			for i, x := range r.Rules {
				rs[i] = rule{GR: x.GR, Supp: x.Supp, Score: x.Score}
			}
			o.digest = digest(rs)
		}
	case readRule:
		var r apiv1.RuleResponse
		err = get(client, base+"/v1/rules/"+strconv.Itoa(req.rank), s.ID, &r)
		tr.close(s, 0, err)
		if err == nil {
			o.epoch = r.Epoch
			o.rule = rule{GR: r.GR, Supp: r.Supp, Score: r.Score}
			o.lwr = r.Counts.LWR
			o.source = r.CountsSource
		}
	case readRecommend:
		body, _ := json.Marshal(apiv1.RecommendRequest{Node: &req.node, TopN: 10})
		var r apiv1.RecommendResponse
		err = post(client, base+"/v1/recommend", s.ID, body, &r)
		tr.close(s, 0, err)
		if err == nil {
			o.epoch = r.Epoch
			o.rules = r.Rules
		}
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// epochRef is the reference state one epoch's reads are checked against.
type epochRef struct {
	rules      []rule
	digest     uint64
	nontrivial int
}

// referenceEpochs replays the ingested batches through a fresh
// single-store engine and records the expected top-k of every epoch
// (epoch 1 is the seed mine, epoch i+1 follows batch i).
func referenceEpochs(gcfg datagen.PokecConfig, batches []core.Batch) ([]epochRef, error) {
	g := datagen.Pokec(gcfg)
	ref, err := core.NewIncremental(g, serveOptions)
	if err != nil {
		return nil, err
	}
	out := make([]epochRef, 1, len(batches)+2)
	record := func(res *core.Result) {
		rs := rulesOf(res.TopK, g.Schema())
		n := 0
		for _, s := range res.TopK {
			if !s.GR.Trivial(g.Schema()) {
				n++
			}
		}
		out = append(out, epochRef{rules: rs, digest: digest(rs), nontrivial: n})
	}
	record(ref.Result())
	for i, b := range batches {
		res, _, err := ref.ApplyBatch(b)
		if err != nil {
			return nil, fmt.Errorf("serve: reference batch %d: %w", i, err)
		}
		record(res)
	}
	return out, nil
}

// checkRead compares one read with its epoch's reference; "" means exact.
func checkRead(o readObs, byEpoch []epochRef) string {
	if o.epoch < 1 || int(o.epoch) >= len(byEpoch) {
		return "epoch outside the ingested range"
	}
	ref := byEpoch[o.epoch]
	switch o.req.kind {
	case readTopK:
		if o.digest != ref.digest {
			return "top-k differs from the reference"
		}
	case readRule:
		if o.req.rank > len(ref.rules) {
			return "rule rank beyond the reference top-k"
		}
		want := ref.rules[o.req.rank-1]
		if o.rule != want {
			return fmt.Sprintf("rule %d is %v, want %v", o.req.rank, o.rule, want)
		}
		if o.lwr != want.Supp {
			return fmt.Sprintf("rule %d explained by support %d, want %d", o.req.rank, o.lwr, want.Supp)
		}
	case readRecommend:
		if o.rules != ref.nontrivial {
			return fmt.Sprintf("recommend applied %d rules, want %d", o.rules, ref.nontrivial)
		}
	}
	return ""
}

func get(client *http.Client, url string, spanID int64, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return do(client, req, spanID, v)
}

func post(client *http.Client, url string, spanID int64, body []byte, v any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(client, req, spanID, v)
}

func do(client *http.Client, req *http.Request, spanID int64, v any) error {
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
