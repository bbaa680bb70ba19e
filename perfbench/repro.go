package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
)

// Each repro drives one program fault the benchmark ran into and prints
// what it observed; it returns an error when the fault shows.
var repros = map[string]func(e *env) error{
	"hot-cache":     reproHotCache,
	"gateway-start": reproGatewayStart,
	"get-race":      reproGetRace,
	"ttl-loop":      reproTTLLoop,
}

func reproNames() []string {
	var ns []string
	for n := range repros {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// restartedNode boots a persist-nc server, lets it write its directory,
// and restarts it from there.
func restartedNode(e *env, nodes int, withData bool) (*persistSystem, func(), error) {
	work, err := os.MkdirTemp(e.workdir, "repro-")
	if err != nil {
		return nil, nil, err
	}
	tree := buildFileSystem(e.nodeCount(nodes))
	capEntries := tree.Len() / 10
	dir := filepath.Join(work, "data")
	if err := firstBoot(e, tree, dir, capEntries, withData); err != nil {
		os.RemoveAll(work)
		return nil, nil, err
	}
	t := time.Now()
	n, tr, err := startPersistNode(e, tree, dir, capEntries, 0)
	if err != nil {
		os.RemoveAll(work)
		return nil, nil, err
	}
	fmt.Printf("restart of %d nodes (hot cache %d) took %.3fs\n", tree.Len(), capEntries, time.Since(t).Seconds())
	s := &persistSystem{tree: tree, node: n, tr: tr}
	return s, func() { s.stop(); os.RemoveAll(work) }, nil
}

// reproHotCache looks the same 100 nodes up three times on a restarted
// larger-than-RAM server. A hot cache that keeps what it loads misses on
// the first round only.
func reproHotCache(e *env) error {
	s, done, err := restartedNode(e, pnNodes, false)
	if err != nil {
		return err
	}
	defer done()
	misses := s.node.Registry().Counter("terradir_persist_index_misses_total", "", "server", "0")
	var last uint64
	for round := 0; round < 3; round++ {
		m0 := misses.Value()
		for nd := 100; nd < 200; nd++ {
			if res, err := s.node.Lookup(context.Background(), core.NodeID(nd)); err != nil || !res.OK {
				return fmt.Errorf("lookup of %d: %v %+v", nd, err, res)
			}
		}
		last = misses.Value() - m0
		fmt.Printf("round %d: 100 lookups of nodes 100..199, %d index misses\n", round, last)
	}
	if last > 50 {
		return fmt.Errorf("the hot cache did not keep the entries it loaded")
	}
	return nil
}

// reproGatewayStart sends the first lookups through a gateway right after
// it starts, one at a time, for the first nodes of the namespace.
func reproGatewayStart(e *env) error {
	s, err := deployGw(e, &setupTimes{}, 0)
	if err != nil {
		return err
	}
	defer s.stop()
	failed := 0
	for i := 0; i < gwServers; i++ {
		nd := core.NodeID(i)
		t := time.Now()
		res, err := s.gw.Lookup(context.Background(), nd)
		if err != nil || !res.OK {
			failed++
			fmt.Printf("lookup %d of node %d (owner %d) failed after %v: %v\n", i, nd, s.pl.ownerOf(nd), time.Since(t).Round(time.Millisecond), err)
		}
	}
	fmt.Printf("%d of %d first lookups failed; the gateway had dialed %d peers\n", failed, len(s.pl.ownedBy), s.gwTr.Stats().Dials)
	if failed > 0 {
		return fmt.Errorf("results of lookups resolved at peers the gateway had not dialed were lost")
	}
	return nil
}

// reproGetRace calls Node.Get from two clients on a restarted server whose
// hot cache is a tenth of its partition. Build with -race to see the data
// race on the local read path.
func reproGetRace(e *env) error {
	s, done, err := restartedNode(e, 3000, true)
	if err != nil {
		return err
	}
	defer done()
	z := newZipf(newRand(e.seed, 2), s.tree.Len(), pnAlpha)
	var gets, noData, other atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for c := 0; c < 2; c++ {
		r := newRand(e.seed, 100+uint64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_, data, err := s.node.Get(context.Background(), core.NodeID(z.next(r)))
				gets.Add(1)
				switch {
				case err != nil && strings.Contains(err.Error(), "no data"):
					noData.Add(1)
				case err != nil || len(data) == 0:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("%d gets: %d failed with no data, %d otherwise\n", gets.Load(), noData.Load(), other.Load())
	if noData.Load()+other.Load() > 0 {
		return fmt.Errorf("gets of hosted nodes failed")
	}
	return nil
}

// reproTTLLoop issues direct-nc's warm-up lookups (uniform destinations,
// sources rotating over the servers, one at a time) on fresh deployments,
// one seed after another, for --seconds, and prints every FailTTL answer
// with the first hops of its route. No lookup should fail; on the
// reference host about one in a million looped.
func reproTTLLoop(e *env) error {
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	lookups, loops := 0, 0
	for seed := e.seed; time.Now().Before(deadline); seed++ {
		se := *e
		se.seed = seed
		s, err := startDirect(&se, &setupTimes{}, e.nodeCount(ncNodes), 0, 0)
		if err != nil {
			return err
		}
		r := newRand(seed, 3)
		for i := 0; i < 50000 && time.Now().Before(deadline); i++ {
			dest := core.NodeID(r.IntN(s.tree.Len()))
			res, err := s.nodes[i%ncServers].Lookup(context.Background(), dest)
			lookups++
			if err != nil {
				s.stop()
				return err
			}
			if !res.OK && res.Reason == core.FailTTL {
				loops++
				var hops []string
				for _, h := range res.Trace[:min(len(res.Trace), 6)] {
					hops = append(hops, fmt.Sprintf("server %d node %d (%s)", h.Server, h.Node, h.Reason))
				}
				fmt.Printf("seed %d lookup %d of node %d from server %d: FailTTL after %d hops: %s ...\n",
					seed, i, dest, i%ncServers, res.Hops, strings.Join(hops, " -> "))
			}
		}
		s.stop()
	}
	fmt.Printf("%d lookups, %d answered FailTTL\n", lookups, loops)
	if loops > 0 {
		return fmt.Errorf("lookups looped until the TTL ran out")
	}
	return nil
}
