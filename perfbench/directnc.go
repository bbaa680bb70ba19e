package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/rng"
)

// direct-nc: an in-process overlay of eight servers over a file-system
// namespace of about 1,000 nodes per server, no sockets, an open loop of
// uniform lookups whose sources rotate over the servers.

const (
	ncServers = 8
	ncNodes   = 8000
	ncRate    = 600  // lookups per second
	ncWarmup  = 2000 // warm-up lookups per set-up
	// ncWarmupRate paces the warm-up (lookups per second); a closed loop
	// ran 4,400-28,000/s on the reference host.
	ncWarmupRate = 5000
)

type localSystem struct {
	tree  *namespace.Tree
	names []string
	pl    *placement
	tr    *overlay.LocalTransport
	nodes []*overlay.Node
}

// ttlReissues counts the lookups of a run re-issued after a FailTTL answer
// (see lookup), set-ups included; the host line reports it.
var ttlReissues atomic.Int64

// lookupAttempts caps the servers one lookup is issued from, as the
// gateway's default MaxAttempts caps its upstream attempts.
const lookupAttempts = 3

// lookup looks dest up from server src. Like the gateway, it treats a
// FailTTL answer as not final and re-issues the lookup from the next server:
// on the reference host about one lookup in several million in the
// in-process overlay came back FailTTL after ping-ponging between a digest
// shortcut and the parent route it leads back through, on no seed in
// particular (a program fault recorded in README.md). Every re-issue is
// counted.
func (s *localSystem) lookup(src int, dest core.NodeID) (overlay.LookupResult, error) {
	for k := 1; ; k++ {
		res, err := s.nodes[src].Lookup(context.Background(), dest)
		if err != nil || res.OK || res.Reason != core.FailTTL || k == lookupAttempts {
			return res, err
		}
		ttlReissues.Add(1)
		src = (src + 1) % len(s.nodes)
	}
}

func (s *localSystem) stop() {
	for _, n := range s.nodes {
		if n != nil {
			n.Stop()
		}
	}
	if s.tr != nil {
		s.tr.Close()
	}
}

// ncSeed fixes the file-system namespace: like the paper's Coda namespace
// Nc it is one namespace, the same in every run; --seed varies the
// placement, the sources and the destinations.
const ncSeed = 1

// buildFileSystem builds the file-system namespace of about nodes nodes
// (the stand-in for the paper's Coda namespace Nc).
func buildFileSystem(nodes int) *namespace.Tree {
	p := namespace.DefaultFileSystemParams()
	p.TargetNodes = nodes
	return namespace.BuildFileSystem(rng.New(ncSeed), p)
}

func startDirect(e *env, st *setupTimes, nodes, warmup int, traceSample float64) (*localSystem, error) {
	t0 := time.Now()
	s := &localSystem{}
	d, _ := e.tr.around("namespace.build", func() error {
		s.tree = buildFileSystem(nodes)
		return nil
	})
	st.build = append(st.build, d)
	s.names = walkedNames(s.tree)
	s.pl = newPlacement(newRand(e.seed, 1), s.tree.Len(), ncServers)
	d, err := e.tr.around("overlay.start", func() error {
		s.tr = overlay.NewLocalTransport(0)
		for i := 0; i < ncServers; i++ {
			n, err := overlay.NewNode(core.ServerID(i), s.tree, s.pl.ownedBy[i], s.pl.ownerOf,
				overlay.Options{Seed: e.seed + uint64(i) + 1, TraceSample: traceSample})
			if err != nil {
				return err
			}
			n.SetTransport(s.tr)
			s.tr.Register(n)
			s.nodes = append(s.nodes, n)
		}
		for _, n := range s.nodes {
			n.Start()
		}
		return nil
	})
	st.start = append(st.start, d)
	if err != nil {
		s.stop()
		return nil, err
	}
	// Warm-up: uniform lookups from rotating sources, so the path caches
	// hold steady-state soft state when the measured phase starts. It is
	// paced: as a closed loop it contended with the servers' time-driven
	// snapshot publishing and took 0.07-0.45 s between set-ups of one run,
	// and whole runs' median set-up times 0.13-0.45 s.
	if warmup > 0 {
		chk := newChecker()
		var hops atomic.Int64
		dests := uniformStream(newRand(e.seed, 3), s.tree.Len(), warmup)
		op := s.lookupOp(e, chk, &hops, dests, func(i int) int { return i % ncServers }, nil)
		p := measure(loadSpec{clients: runtime.NumCPU(), rate: ncWarmupRate, seconds: float64(warmup) / ncWarmupRate}, op)
		if p.failed > 0 || !chk.ok() {
			s.stop()
			return nil, fmt.Errorf("%d of %d warm-up lookups failed: %v", p.failed, p.ops, chk.failures())
		}
	}
	st.total = append(st.total, time.Since(t0).Seconds())
	return s, nil
}

// lookupOp returns the operation of the direct workloads: look up dests[i]
// from server source(i), record the lookup span and its hop spans, and check
// the answer. meta, when non-nil, checks the metadata the answer carries.
func (s *localSystem) lookupOp(e *env, chk *checker, hops *atomic.Int64, dests []core.NodeID,
	source func(i int) int, meta func(core.NodeID, core.Meta) bool) opFunc {
	return func(c, i int) bool {
		dest := dests[i%len(dests)]
		src := source(i)
		t := time.Now()
		res, err := s.lookup(src, dest)
		if e.tr.enabled() {
			trace := e.tr.newID()
			id := e.tr.record(trace, 0, "overlay.Node.Lookup", t)
			e.tr.hops(trace, id, t, res.Trace)
		}
		if err != nil || !res.OK {
			return false
		}
		hops.Add(int64(res.Hops))
		if res.Node != dest || res.Name != s.names[dest] || !s.pl.hostsOwner(dest, res.Hosts) {
			chk.failf("lookup of %d from server %d answered node %d name %q hosts %v (owner %d)",
				dest, src, res.Node, res.Name, res.Hosts, s.pl.ownerOf(dest))
		} else if meta != nil && !meta(dest, res.Meta) {
			chk.failf("lookup of %d answered metadata %+v", dest, res.Meta)
		}
		return true
	}
}

func runDirectNc(e *env) (*outcome, error) {
	clients := runtime.NumCPU()
	nodes, warmup, rate, setups := ncNodes, ncWarmup, float64(ncRate), 7
	if e.smoke {
		nodes, warmup, rate, setups = 800, 400, 200, 2
	}
	nodes = e.nodeCount(nodes)
	var st setupTimes
	var sys *localSystem
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.stop()
		}
		var err error
		if sys, err = startDirect(e, &st, nodes, warmup, 0); err != nil {
			return nil, err
		}
	}
	defer func() { sys.stop() }()

	spec := loadSpec{clients: clients, rate: rate, seconds: e.seconds}
	dests := uniformStream(newRand(e.seed, 4), sys.tree.Len(), int(rate*e.seconds)+1)
	source := func(i int) int { return i % ncServers }
	out := &outcome{check: newChecker(), metrics: map[string]float64{}, config: map[string]any{
		"servers": ncServers, "nodes": sys.tree.Len(), "rate": rate, "clients": clients,
		"loop": "open", "transport": "in-process", "shards": sys.nodes[0].Shards(),
	}}
	var hops atomic.Int64
	mkOp := func(s *localSystem) opFunc { return s.lookupOp(e, out.check, &hops, dests, source, nil) }
	m := out.metrics
	if !e.traced {
		p := measure(spec, mkOp(sys))
		out.attempted, out.failed = p.ops, p.failed
		p.endToEnd(m, out.config)
		m["setup_s"] = medianOf(st.total)
		return out, nil
	}

	regs := nodeRegistries(sys.nodes)
	r0 := regTotals(regs...)
	a := measure(spec, mkOp(sys))
	d := regDelta(r0, regTotals(regs...))
	lookups := float64(a.ops)
	a.runtimeMetrics(m)
	a.tail(m, out.config)
	overlayCounters(m, d, lookups)
	m["overlay.hops_mean"] = ratio(float64(hops.Load()), float64(a.ops-a.failed))
	m["loadgen.max_late_ms"] = float64(a.maxLate) / 1e6

	e.tr.on.Store(true)
	var b *phase
	if err := profiled(m, func() { b = measure(spec, mkOp(sys)) }); err != nil {
		return nil, err
	}
	e.tr.on.Store(false)
	hopMetrics(m, e.tr)
	m["bench.trace_overhead"] = b.cpuUsPerOp() - a.cpuUsPerOp()
	if err := coreState(m, sys.nodes, 1); err != nil {
		return nil, err
	}
	m["namespace.build_s"] = medianOf(st.build)
	m["overlay.start_s"] = medianOf(st.start)

	off, err := startDirect(e, &setupTimes{}, nodes, warmup, -1)
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
