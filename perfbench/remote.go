package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/rpc"
	"grminer/internal/store"
)

// The remote workload: a sharded incremental engine over 4 shards
// multiplexed on two loopback rpc.ServeShards daemons, with one standby
// daemon, at the default checkpoint interval. A closed loop applies small
// mixed batches and waits on each, like -follow; each batch also goes to a
// single-store reference engine, timed apart. At fixed batch indices a
// daemon is killed and restarted empty on its address, so the failover
// supervisor restores its shards from their checkpoints and replays the
// logged batches.
const (
	remoteNodes   = 800 // 12k edges
	remoteShards  = 4
	remoteSetups  = 3
	remoteIns     = 12 // a batch inserts 12 edges ...
	remoteDel     = 4  // ... and retracts 4 earlier ones
	firstDrill    = 10 // the first kill lands before batch 10 ...
	drillEvery    = 8  // ... and every 8 batches after it
	drillAround   = 2  // unkilled batches on each side a drill is compared with
	exactPrefix   = 12 // counts and decisions are compared over this many batches
	remoteMinSupp = 100
)

var remoteOptions = core.Options{MinSupp: remoteMinSupp, MinScore: 0.5, K: 100, DynamicFloor: true}

// daemon is an in-process shardd: rpc.ServeShards on a loopback listener
// that can be killed (listener and live sessions closed at once, as a crash
// looks to the coordinator) and restarted empty on the same address.
type daemon struct {
	addr     string
	capacity int
	tr       *tracer

	mu    sync.Mutex
	l     net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

func startDaemon(addr string, capacity int, tr *tracer) (*daemon, error) {
	d := &daemon{addr: addr, capacity: capacity, tr: tr}
	if err := d.listen(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) listen() error {
	l, err := net.Listen("tcp", d.addr)
	if err != nil {
		return fmt.Errorf("remote: daemon listen: %w", err)
	}
	d.addr = l.Addr().String()
	var served net.Listener = &killableListener{Listener: l, d: d}
	if d.tr != nil {
		served = &tracedListener{Listener: served, tr: d.tr}
	}
	d.mu.Lock()
	d.l = l
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = rpc.ServeShards(served, d.capacity, nil) // ends when killed
	}()
	return nil
}

// kill drops the listener and every live session and waits for the
// serving goroutine to end.
func (d *daemon) kill() {
	d.mu.Lock()
	d.l.Close()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
	d.mu.Unlock()
	d.wg.Wait()
}

// restart kills the daemon and starts an empty one on the same address.
func (d *daemon) restart() error {
	d.kill()
	return d.listen()
}

// killableListener records each accepted connection so kill can sever it.
type killableListener struct {
	net.Listener
	d *daemon
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.d.mu.Lock()
	l.d.conns = append(l.d.conns, c)
	l.d.mu.Unlock()
	return c, nil
}

// remoteDeployment is one constructed engine and the fleet under it.
type remoteDeployment struct {
	g     *graph.Graph
	fleet *rpc.Fleet
	inc   *core.IncrementalSharded
}

func (r *remoteDeployment) close() {
	r.inc.Close()
	r.fleet.Close()
}

func runRemote(cfg config, tr *tracer) (*pass, error) {
	p := newPass()
	gcfg := pokecConfig(remoteNodes, cfg.seed)

	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.kill()
		}
	}()
	for i := 0; i < 3; i++ {
		d, err := startDaemon("127.0.0.1:0", 2, tr)
		if err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
	}
	primaries := []string{daemons[0].addr, daemons[1].addr}
	standbys := []string{daemons[2].addr}
	rec := newRecoveryWatch()

	var dep *remoteDeployment
	for i := 0; i < remoteSetups; i++ {
		// A daemon serves one coordinator session at a time, so the
		// previous deployment must be gone before the next one dials.
		if dep != nil {
			dep.close()
		}
		g := datagen.Pokec(gcfg)
		s := tr.open("setup", 0)
		tr.setParent(s.ID)
		sw := startSetup()
		fleet := rpc.NewFleet(primaries, rpc.FleetOptions{Standbys: standbys})
		var builder core.FleetBuilder = fleet
		if tr != nil {
			builder = &tracedFleet{inner: fleet, tr: tr, rec: rec}
		}
		inc, err := core.NewIncrementalShardedFrom(g, remoteOptions, core.ShardOptions{Shards: remoteShards}, builder)
		wall, cpu := sw.elapsed()
		tr.close(s, 0, err)
		tr.setParent(0)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("remote: engine: %w", err)
		}
		p.setup = append(p.setup, cpu)
		p.setupWall = append(p.setupWall, wall)
		dep = &remoteDeployment{g: g, fleet: fleet, inc: inc}
	}
	defer dep.close()
	if tr != nil {
		gs := datagen.Pokec(gcfg)
		s := tr.open("store.build", 0)
		_ = store.Build(gs)
		tr.close(s, 0, nil)
	}

	gRef := datagen.Pokec(gcfg)
	ref, err := core.NewIncremental(gRef, dep.inc.Options())
	if err != nil {
		return nil, fmt.Errorf("remote: reference engine: %w", err)
	}
	if diff := diffRules(rulesOf(dep.inc.Result().TopK, gRef.Schema()), rulesOf(ref.Result().TopK, gRef.Schema())); diff != "" {
		p.problem("seed top-k differs from the single-store reference: %s", diff)
	}

	rng := rand.New(rand.NewSource(cfg.seed*104729 + 29))
	var (
		live     []core.EdgeInsert
		all      []time.Duration
		refLat   latencies
		killed   = map[int]bool{}
		victim   = 0
		deadline = time.Now().Add(cfg.span())
	)
	for b := 0; b < exactPrefix || time.Now().Before(deadline); b++ {
		var batch core.Batch
		batch, live = mixedBatch(rng, dep.g, live, remoteIns, remoteDel)
		if b >= firstDrill && (b-firstDrill)%drillEvery == 0 {
			if err := daemons[victim].restart(); err != nil {
				return nil, err
			}
			victim = 1 - victim
			killed[b] = true
		}

		tr.setBatch(int64(b))
		s := tr.open("coord.apply", 0)
		tr.setParent(s.ID)
		sw := startWatch()
		res, st, err := dep.inc.ApplyBatch(batch)
		d, c := sw.elapsed()
		tr.close(s, 0, err)
		tr.setParent(0)
		p.attempted++
		if err != nil {
			p.failed++
			p.problem("batch %d: %v", b, err)
			break // a failed remote batch poisons the engine
		}
		all = append(all, d)
		if !killed[b] {
			p.ops = append(p.ops, d)
			p.opCPU = append(p.opCPU, c)
		}

		t1 := time.Now()
		want, _, err := ref.ApplyBatch(batch)
		refLat = append(refLat, time.Since(t1))
		if err != nil {
			return nil, fmt.Errorf("remote: reference batch %d: %w", b, err)
		}
		if diff := diffRules(rulesOf(res.TopK, gRef.Schema()), rulesOf(want.TopK, gRef.Schema())); diff != "" {
			p.problem("batch %d differs from the single-store reference: %s", b, diff)
		}
		if b == exactPrefix-1 {
			p.layer["coord.pool"] = float64(st.Tracked)
			p.signature = fleetSignature(dep.inc.FleetHealth())
			var replayed, retries int64
			for _, h := range dep.inc.FleetHealth() {
				replayed += h.ReplayedBatches
				retries += h.Retries
			}
			p.layer["recovery.replayed_batches"] = float64(replayed)
			p.layer["fleet.retries"] = float64(retries)
		}
	}
	tr.setBatch(noBatch)
	p.recovery, p.hasRecovery = recoveryOverhead(all, killed, drillAround)

	ref = nil
	p.heapMB = liveHeapMB()
	runtime.KeepAlive(dep)

	fresh, err := core.Mine(dep.g, dep.inc.Options())
	if err != nil {
		return nil, fmt.Errorf("remote: fresh mine: %w", err)
	}
	if diff := diffRules(rulesOf(dep.inc.Result().TopK, gRef.Schema()), rulesOf(fresh.TopK, gRef.Schema())); diff != "" {
		p.problem("final top-k differs from a fresh single-store mine: %s", diff)
	}
	for _, h := range dep.inc.FleetHealth() {
		if !h.Live {
			p.problem("shard %d ended without a live worker: %s", h.Shard, h.LastError)
		}
	}

	refP50 := refLat.median()
	p.layer["reference.apply_ms"] = ms(refP50)
	if refP50 > 0 {
		p.layer["coord.overhead_x"] = float64(p.ops.median()) / float64(refP50)
	}
	if tr != nil {
		remoteSpanMetrics(p, newSpanStats(tr), killed)
	}
	return p, nil
}

// fleetSignature renders the failover decisions of every shard.
func fleetSignature(hs []core.WorkerHealth) string {
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = fmt.Sprintf("shard%d:checkpoints=%d,replacements=%d,replayed=%d,retries=%d",
			h.Shard, h.CheckpointEpoch, h.Replacements, h.ReplayedBatches, h.Retries)
	}
	return strings.Join(parts, " ")
}

// remoteSpanMetrics derives the coordinator, wire, worker, supervisor and
// recovery numbers from a traced pass's spans.
func remoteSpanMetrics(p *pass, ss *spanStats, killed map[int]bool) {
	steady := func(s span) bool { return s.Batch >= 0 && !killed[int(s.Batch)] }
	prefix := func(s span) bool { return s.Batch >= 0 && s.Batch < exactPrefix }
	setup := func(s span) bool { return s.Batch == noBatch }

	p.layer["store.build_ms"] = medianMs(ss.durations("store.build", false, nil))
	p.layer["coord.self_ms"] = medianMs(ss.durations("coord.apply", true, steady))
	p.layer["rpc.offer_rtt_ms"] = medianMs(ss.durations("rpc.offer", false, setup))
	p.layer["rpc.counts_rtt_ms"] = medianMs(ss.durations("rpc.counts", false, steady))
	p.layer["rpc.ingest_rtt_ms"] = medianMs(ss.durations("rpc.ingest", false, steady))
	p.layer["rpc.counts_grs"] = ss.meanN("rpc.counts", prefix)
	p.layer["rpc.ingest_deltas"] = ss.meanN("rpc.ingest", prefix)
	p.layer["rpc.bytes_out"] = float64(ss.sumN("rpc.bytes_out", prefix)) / exactPrefix
	p.layer["rpc.bytes_in"] = float64(ss.sumN("rpc.bytes_in", prefix)) / exactPrefix
	p.layer["worker.hold_ms"] = medianMs(ss.durations("worker.hold", false, steady))

	// Transport is the round trip the coordinator saw minus the time the
	// daemon held the request, averaged over the steady batches' calls.
	var rtt, hold time.Duration
	calls := 0
	for _, name := range []string{"rpc.counts", "rpc.ingest", "supervisor.checkpoint"} {
		for _, d := range ss.durations(name, false, steady) {
			rtt += d
			calls++
		}
	}
	for _, d := range ss.durations("worker.hold", false, steady) {
		hold += d
	}
	if calls > 0 {
		p.layer["rpc.transport_ms"] = ms((rtt - hold) / time.Duration(calls))
	}

	p.layer["supervisor.checkpoints"] = float64(ss.count("supervisor.checkpoint", prefix))
	p.layer["supervisor.checkpoint_ms"] = medianMs(ss.durations("supervisor.checkpoint", false, nil))
	p.layer["supervisor.checkpoint_bytes"] = ss.meanN("supervisor.checkpoint", prefix)

	var detect latencies
	for _, s := range ss.spans {
		if s.Err && strings.HasPrefix(s.Name, "rpc.") {
			detect = append(detect, s.dur())
		}
	}
	p.layer["recovery.detect_ms"] = medianMs(detect)
	restores := append(ss.durations("recovery.restore", false, nil), ss.durations("recovery.rebuild", false, nil)...)
	p.layer["recovery.restore_ms"] = medianMs(restores)
	if len(restores) > 0 {
		var replay time.Duration
		for _, d := range ss.durations("recovery.replay", false, nil) {
			replay += d
		}
		p.layer["recovery.replay_ms"] = ms(replay / time.Duration(len(restores)))
	}
	p.layer["recovery.reissue_ms"] = medianMs(ss.durations("recovery.reissue", false, nil))
}
