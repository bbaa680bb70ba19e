package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/gateway"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
)

// gw-zipf: eight peers on TCP loopback behind one gateway, the paper's
// 255-node balanced tree, Zipf(0.9) destinations, an open loop of nproc
// clients calling Gateway.Lookup.
//
// The loop is open at a fixed rate, well below what the two clients reach
// closed: on the shared 2-vCPU reference host a closed loop is bound by
// wake-up latency, not CPU (43% idle), and its throughput moved 14k-24k
// lookups/s between runs of the same code. The rate leaves each client a
// request every 2 ms: a sleep there overshot by 0.6 ms at the median and
// 2-3 ms at the 90th percentile, so at 5,000/s (one request every 0.4 ms)
// each wake-up sent a bunch of requests back to back and the median latency
// measured the bunching, 2.5 times the gateway's own and spread 0.23 over
// ten runs.

const (
	gwServers = 8
	gwLevels  = 8 // 2^8-1 = 255 nodes
	gwAlpha   = 0.9
	gwRate    = 1000 // lookups per second
)

type gwSystem struct {
	tree  *namespace.Tree
	pl    *placement
	trs   []*overlay.TCPTransport
	nodes []*overlay.Node
	gwTr  *overlay.TCPTransport
	gw    *gateway.Gateway
}

func (s *gwSystem) stop() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.gwTr != nil {
		s.gwTr.Close()
	}
	for i, n := range s.nodes {
		if n != nil {
			n.Stop()
		}
		if s.trs[i] != nil {
			s.trs[i].Close()
		}
	}
}

// transportTotals sums the counters of every transport: the peers' and the
// gateway's.
func (s *gwSystem) transportTotals() overlay.TransportStats {
	var t overlay.TransportStats
	for _, tr := range append(append([]*overlay.TCPTransport(nil), s.trs...), s.gwTr) {
		st := tr.Stats()
		t.Sent += st.Sent
		t.QueueDrops += st.QueueDrops
		t.FramesRead += st.FramesRead
		t.ReadBatches += st.ReadBatches
	}
	return t
}

// setupTimes collects one set-up's layer timings.
type setupTimes struct {
	total, build, start []float64
}

// startGw builds and starts one deployment, waits until the gateway can
// reach every peer, and warms the routing caches; traceSample 0 keeps the
// program's default sampling.
func startGw(e *env, st *setupTimes, traceSample float64) (*gwSystem, error) {
	t0 := time.Now()
	s, err := deployGw(e, st, traceSample)
	if err != nil {
		return nil, err
	}
	// A peer can answer a gateway only after the gateway has dialed it (the
	// dial carries the client hello that binds the reply route); the result
	// of a query forwarded to a peer not yet dialed is lost. The gateway's
	// first probe round dials every peer, so wait until every peer has
	// answered one probe before the first lookup.
	_, err = e.tr.around("gateway.ready", func() error {
		deadline := time.Now().Add(10 * time.Second)
		for s.gwTr.Stats().FramesRead < gwServers {
			if time.Now().After(deadline) {
				return fmt.Errorf("gateway probes unanswered after 10s")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	// Warm-up: every node twice through the gateway, so the routing caches
	// the measured phase reads are filled.
	names := balancedNames(gwLevels)
	for pass := 0; pass < 2; pass++ {
		for nd := 0; nd < s.tree.Len(); nd++ {
			res, err := s.gw.Lookup(context.Background(), core.NodeID(nd))
			if err != nil || !res.OK || res.Name != names[nd] {
				s.stop()
				return nil, fmt.Errorf("warm-up lookup of %d failed: %v %+v", nd, err, res)
			}
		}
	}
	st.total = append(st.total, time.Since(t0).Seconds())
	return s, nil
}

// deployGw builds the namespace, starts the peers on loopback TCP and the
// gateway in front of them.
func deployGw(e *env, st *setupTimes, traceSample float64) (*gwSystem, error) {
	s := &gwSystem{}
	d, _ := e.tr.around("namespace.build", func() error {
		s.tree = namespace.NewBalanced(2, gwLevels)
		return nil
	})
	st.build = append(st.build, d)
	s.pl = newPlacement(newRand(e.seed, 1), s.tree.Len(), gwServers)
	s.trs = make([]*overlay.TCPTransport, gwServers)
	s.nodes = make([]*overlay.Node, gwServers)
	d, err := e.tr.around("overlay.start", func() error {
		addrs := map[core.ServerID]string{}
		for i := range s.trs {
			tr, err := overlay.NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0",
				map[core.ServerID]string{}, overlay.TCPTransportOptions{Seed: e.seed + uint64(i)})
			if err != nil {
				return err
			}
			s.trs[i] = tr
			addrs[core.ServerID(i)] = tr.Addr()
		}
		for i := range s.nodes {
			for j, a := range addrs {
				s.trs[i].SetAddr(j, a)
			}
			n, err := overlay.NewNode(core.ServerID(i), s.tree, s.pl.ownedBy[i], s.pl.ownerOf,
				overlay.Options{Seed: e.seed + uint64(i) + 1, TraceSample: traceSample})
			if err != nil {
				return err
			}
			s.nodes[i] = n
			overlay.StartTCPNode(n, s.trs[i])
		}
		return nil
	})
	st.start = append(st.start, d)
	if err != nil {
		s.stop()
		return nil, err
	}
	_, err = e.tr.around("gateway.start", func() error {
		addrs := map[core.ServerID]string{}
		peers := make([]core.ServerID, gwServers)
		probe := map[core.ServerID]core.NodeID{}
		for i, tr := range s.trs {
			addrs[core.ServerID(i)] = tr.Addr()
			peers[i] = core.ServerID(i)
			if own := s.pl.ownedBy[i]; len(own) > 0 {
				probe[core.ServerID(i)] = own[0]
			}
		}
		gwTr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0", addrs,
			overlay.TCPTransportOptions{ClientRole: true, Seed: e.seed + 1000})
		if err != nil {
			return err
		}
		s.gwTr = gwTr
		s.gw, err = gateway.New(gateway.Options{
			Tree: s.tree, Self: core.ClientID(0), Peers: peers, Wire: gwTr,
			ProbeDest: func(p core.ServerID) core.NodeID {
				if nd, ok := probe[p]; ok {
					return nd
				}
				return s.tree.Root()
			},
		})
		return err
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func runGwZipf(e *env) (*outcome, error) {
	clients := runtime.NumCPU()
	setups, rate := 3, float64(gwRate)
	if e.smoke {
		setups, rate = 2, 500
	}
	var st setupTimes
	var sys *gwSystem
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.stop()
		}
		var err error
		if sys, err = startGw(e, &st, 0); err != nil {
			return nil, err
		}
	}
	defer func() { sys.stop() }()

	names := balancedNames(gwLevels)
	z := newZipf(newRand(e.seed, 2), sys.tree.Len(), gwAlpha)
	dests := zipfStream(newRand(e.seed, 4), z, int(rate*e.seconds)+1)
	out := &outcome{check: newChecker(), metrics: map[string]float64{}, config: map[string]any{
		"servers": gwServers, "nodes": sys.tree.Len(), "alpha": gwAlpha, "clients": clients,
		"rate": rate, "loop": "open", "transport": "tcp loopback", "shards": sys.nodes[0].Shards(),
	}}
	var hops atomic.Int64
	spec := loadSpec{clients: clients, rate: rate, seconds: e.seconds}
	mkOp := func(s *gwSystem) opFunc {
		return func(c, i int) bool {
			dest := dests[i%len(dests)]
			t := time.Now()
			res, err := s.gw.Lookup(context.Background(), dest)
			e.tr.record(e.tr.newID(), 0, "gateway.Lookup", t)
			if err != nil || !res.OK {
				return false
			}
			hops.Add(int64(res.Hops))
			if res.Node != dest || res.Name != names[dest] || !s.pl.hostsOwner(dest, res.Servers) {
				out.check.failf("gateway lookup of %d answered node %d name %q hosts %v (owner %d)",
					dest, res.Node, res.Name, res.Servers, s.pl.ownerOf(dest))
			}
			return true
		}
	}
	m := out.metrics
	if !e.traced {
		p := measure(spec, mkOp(sys))
		out.attempted, out.failed = p.ops, p.failed
		p.endToEnd(m, out.config)
		m["setup_s"] = medianOf(st.total)
		return out, nil
	}

	// Traced run: an untraced phase for the counters and the runtime, a
	// traced phase for spans and the CPU profile, then a fresh deployment
	// with the program's tracing off to price it.
	regs := append(nodeRegistries(sys.nodes), sys.gw.Registry())
	r0, t0 := regTotals(regs...), sys.transportTotals()
	hops.Store(0)
	a := measure(spec, mkOp(sys))
	d, td := regDelta(r0, regTotals(regs...)), sys.transportTotals()
	lookups := float64(a.ops)
	a.runtimeMetrics(m)
	a.tail(m, out.config)
	m["gateway.cache_hit_ratio"] = ratio(d["terradir_gw_cache_hits_total"], d["terradir_gw_cache_hits_total"]+d["terradir_gw_cache_misses_total"])
	m["gateway.coalesced_ratio"] = ratio(d["terradir_gw_coalesce_hits_total"], lookups)
	m["gateway.upstream_attempts_per_lookup"] = ratio(d["terradir_gw_upstream_queries_total"], d["terradir_gw_flights_total"])
	m["transport.frames_per_read"] = ratio(float64(td.FramesRead-t0.FramesRead), float64(td.ReadBatches-t0.ReadBatches))
	m["transport.frames_sent_per_lookup"] = ratio(float64(td.Sent-t0.Sent), lookups)
	m["transport.queue_drops"] = float64(td.QueueDrops - t0.QueueDrops)
	m["overlay.hops_mean"] = ratio(float64(hops.Load()), float64(a.ops-a.failed))
	m["loadgen.max_late_ms"] = float64(a.maxLate) / 1e6
	overlayCounters(m, d, lookups)

	e.tr.on.Store(true)
	var b *phase
	if err := profiled(m, func() { b = measure(spec, mkOp(sys)) }); err != nil {
		return nil, err
	}
	e.tr.on.Store(false)
	m["gateway.lookup_us"], _ = windowedQuantile(e.tr.durationsUs("gateway.Lookup"), 0.5, 1)
	m["bench.trace_overhead"] = b.cpuUsPerOp() - a.cpuUsPerOp()
	if err := coreState(m, sys.nodes, 1); err != nil {
		return nil, err
	}
	m["namespace.build_s"] = medianOf(st.build)
	m["overlay.start_s"] = medianOf(st.start)

	off, err := startGw(e, &setupTimes{}, -1)
	if err != nil {
		return nil, err
	}
	c := measure(spec, mkOp(off))
	off.stop()
	m["telemetry.trace_cpu_us_per_op"] = a.cpuUsPerOp() - c.cpuUsPerOp()
	out.attempted = a.ops + b.ops + c.ops
	out.failed = a.failed + b.failed + c.failed
	return out, nil
}
