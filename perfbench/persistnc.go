package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/persist"
	"terradir/internal/telemetry"
)

// persist-nc: one server hosting an Nc-scale partition (about 70k nodes)
// from its data directory, with a hot cache a tenth of the partition. The
// first boot writes metadata for every node and lets snapshots build the
// on-disk index; the measured server is a restart from a copy of that
// directory; the load is an open loop of Zipf lookups whose tail misses to
// the index.

const (
	pnNodes    = 70000
	pnRate     = 20 // lookups per second
	pnAlpha    = 0.9
	pnRestarts = 3
	// pnBootSnapshots is the snapshot period of the first boot only, so the
	// index exists before the restart; restarted servers keep the program's
	// default period.
	pnBootSnapshots = 200 * time.Millisecond
)

// metaFor is the metadata the first boot writes for a node, derived from
// its id alone.
func metaFor(nd core.NodeID) map[string]string {
	return map[string]string{"bench": strconv.FormatUint(uint64(nd)*2654435761%1000000007, 36)}
}

type persistSystem struct {
	tree  *namespace.Tree
	names []string
	node  *overlay.Node
	tr    *overlay.LocalTransport
}

func (s *persistSystem) stop() {
	if s.node != nil {
		s.node.Stop()
	}
	if s.tr != nil {
		s.tr.Close()
	}
}

// startPersistNode builds and starts the single server over dir.
func startPersistNode(e *env, tree *namespace.Tree, dir string, capEntries int, snap time.Duration) (*overlay.Node, *overlay.LocalTransport, error) {
	all := make([]core.NodeID, tree.Len())
	for i := range all {
		all[i] = core.NodeID(i)
	}
	n, err := overlay.NewNode(0, tree, all, func(core.NodeID) core.ServerID { return 0 }, overlay.Options{
		Seed:    e.seed + 1,
		Persist: &overlay.PersistOptions{Dir: dir, HotCacheEntries: capEntries, SnapshotInterval: snap},
	})
	if err != nil {
		return nil, nil, err
	}
	tr := overlay.NewLocalTransport(0)
	tr.Register(n)
	n.SetTransport(tr)
	n.Start()
	return n, tr, nil
}

func residentCount(n *overlay.Node) (resident int, ok bool) {
	ok = n.Inspect(func(p *core.Peer) { resident += p.ResidentCount() })
	return resident, ok
}

// firstBoot writes the data directory: every node's metadata (and, with
// withData, a data payload), then snapshots until one taken after the
// writes has built the index and the hot cache has drained to its cap.
func firstBoot(e *env, tree *namespace.Tree, dir string, capEntries int, withData bool) error {
	n, tr, err := startPersistNode(e, tree, dir, capEntries, pnBootSnapshots)
	if err != nil {
		return err
	}
	defer func() { n.Stop(); tr.Close() }()
	snaps := n.Registry().Counter("terradir_persist_snapshots_total", "", "server", "0")
	n.Inspect(func(p *core.Peer) {
		for i := 0; i < tree.Len(); i++ {
			p.SetMeta(core.NodeID(i), metaFor(core.NodeID(i)))
			if withData {
				p.SetData(core.NodeID(i), []byte(metaFor(core.NodeID(i))["bench"]))
			}
		}
	})
	want := snaps.Value() + 2
	deadline := time.Now().Add(120 * time.Second)
	for {
		resident, _ := residentCount(n)
		if snaps.Value() >= want && resident <= capEntries {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("first boot: %d snapshots, %d resident of cap %d after 120s", snaps.Value(), resident, capEntries)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			err = firstErr(err, out.Close())
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func runPersistNc(e *env) (*outcome, error) {
	clients := runtime.NumCPU()
	nodes, rate := pnNodes, float64(pnRate)
	if e.smoke {
		nodes, rate = 3000, 200
	}
	nodes = e.nodeCount(nodes)
	work, err := os.MkdirTemp(e.workdir, "persist-nc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	tree := buildFileSystem(nodes)
	capEntries := tree.Len() / 10
	pristine := filepath.Join(work, "boot")
	if err := firstBoot(e, tree, pristine, capEntries, false); err != nil {
		return nil, err
	}

	// Restarts: each from its own copy of the first boot's directory, so
	// every restart replays the same snapshot, index and WAL tail.
	var st setupTimes
	sys := &persistSystem{}
	defer func() { sys.stop() }()
	for k := 0; k < pnRestarts; k++ {
		sys.stop()
		dir := filepath.Join(work, fmt.Sprintf("restart%d", k))
		if err := copyDir(pristine, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, _ := e.tr.around("namespace.build", func() error {
			sys.tree = buildFileSystem(nodes)
			return nil
		})
		st.build = append(st.build, d)
		d, err := e.tr.around("overlay.start", func() error {
			var err error
			sys.node, sys.tr, err = startPersistNode(e, sys.tree, dir, capEntries, 0)
			return err
		})
		st.start = append(st.start, d)
		if err != nil {
			return nil, err
		}
		st.total = append(st.total, time.Since(t0).Seconds())
	}
	sys.names = walkedNames(sys.tree)
	out := &outcome{check: newChecker(), metrics: map[string]float64{}, config: map[string]any{
		"servers": 1, "nodes": sys.tree.Len(), "hot_cache_entries": capEntries, "rate": rate,
		"alpha": pnAlpha, "clients": clients, "loop": "open", "shards": sys.node.Shards(),
	}}
	if rs := sys.node.ReplayedState(); rs == nil || !rs.Indexed {
		out.check.failf("restart did not replay from the on-disk index")
	}

	z := newZipf(newRand(e.seed, 2), sys.tree.Len(), pnAlpha)
	dests := zipfStream(newRand(e.seed, 4), z, int(rate*e.seconds)+1)
	ls := &localSystem{tree: sys.tree, names: sys.names, pl: &placement{owner: make([]core.ServerID, sys.tree.Len())},
		nodes: []*overlay.Node{sys.node}}
	var hops atomic.Int64
	metaOK := func(nd core.NodeID, m core.Meta) bool { return m.Attrs["bench"] == metaFor(nd)["bench"] }
	op := ls.lookupOp(e, out.check, &hops, dests, func(int) int { return 0 }, metaOK)
	spec := loadSpec{clients: clients, rate: rate, seconds: e.seconds}
	reg := sys.node.Registry()
	misses := reg.Counter("terradir_persist_index_misses_total", "", "server", "0")

	// phaseWithCap runs one measured phase while checking that the
	// resident set stays within the hot-cache cap: at the start, every two
	// seconds and at the end. A check parks the event loop and forces a
	// snapshot publish, so it stays rare.
	checkCap := func() {
		if r, ok := residentCount(sys.node); ok && r > capEntries {
			out.check.failf("%d resident entries exceed the hot-cache cap %d", r, capEntries)
		}
	}
	phaseWithCap := func() *phase {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				checkCap()
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		m0 := misses.Value()
		p := measure(spec, op)
		close(stop)
		wg.Wait()
		checkCap()
		if misses.Value() == m0 {
			out.check.failf("no lookup missed to the on-disk index")
		}
		return p
	}

	m := out.metrics
	if !e.traced {
		p := phaseWithCap()
		out.attempted, out.failed = p.ops, p.failed
		p.endToEnd(m, out.config)
		m["setup_s"] = medianOf(st.total)
		return out, nil
	}

	r0 := regTotals(reg)
	a := phaseWithCap()
	d := regDelta(r0, regTotals(reg))
	lookups := float64(a.ops)
	a.runtimeMetrics(m)
	a.tail(m, out.config)
	overlayCounters(m, d, lookups)
	m["overlay.hops_mean"] = ratio(float64(hops.Load()), float64(a.ops-a.failed))
	m["loadgen.max_late_ms"] = float64(a.maxLate) / 1e6
	m["persist.cold_miss_ratio"] = ratio(d["terradir_persist_index_misses_total"], lookups)
	m["persist.evictions_per_lookup"] = ratio(d["terradir_persist_index_evictions_total"], lookups)
	m["persist.wal_appends_per_lookup"] = ratio(d["terradir_persist_wal_appends_total"], lookups)
	m["persist.wal_bytes_per_lookup"] = ratio(d["terradir_persist_wal_bytes_total"], lookups)
	load := reg.Histogram("terradir_persist_index_load_seconds", "", telemetry.HistogramOpts{}, "server", "0")
	m["persist.index_load_p50_us"] = load.Quantile(0.50) * 1e6
	m["persist.index_load_p99_us"] = load.Quantile(0.99) * 1e6

	e.tr.on.Store(true)
	var b *phase
	if err := profiled(m, func() { b = phaseWithCap() }); err != nil {
		return nil, err
	}
	_, err = e.tr.around("persist.Open", func() error {
		dir := filepath.Join(work, "open")
		if err := copyDir(pristine, dir); err != nil {
			return err
		}
		t := time.Now()
		st, _, err := persist.Open(dir, persist.Options{NodeIndex: true})
		if err == nil {
			m["persist.open_s"] = time.Since(t).Seconds()
			err = st.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	e.tr.on.Store(false)
	hopMetrics(m, e.tr)
	m["bench.trace_overhead"] = b.cpuUsPerOp() - a.cpuUsPerOp()
	if err := coreState(m, []*overlay.Node{sys.node}, 5); err != nil {
		return nil, err
	}
	if r, ok := residentCount(sys.node); ok {
		m["persist.resident_entries"] = float64(r)
	}
	m["namespace.build_s"] = medianOf(st.build)
	m["overlay.start_s"] = medianOf(st.start)
	m["persist.install_s"] = medianOf(st.start) - m["persist.open_s"]
	out.attempted = a.ops + b.ops
	out.failed = a.failed + b.failed
	return out, nil
}
