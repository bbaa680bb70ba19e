package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"terradir/internal/core"
	"terradir/internal/namespace"
)

// The benchmark generates every input from its own seeded generators; the
// program receives only the generated destinations, placements and traces.

// newRand returns the benchmark's generator for one input stream of a seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x5eed5eed5eed5eed))
}

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^alpha and maps each rank
// to an item through a random permutation (the ranking), so the hot set is
// spread over the namespace.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(r *rand.Rand, n int, alpha float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: r.Perm(n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), alpha)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

// rerank draws a fresh popularity ranking.
func (z *zipf) rerank(r *rand.Rand) { z.perm = r.Perm(len(z.cdf)) }

func (z *zipf) next(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return z.perm[k]
}

// zipfStream pre-draws n destinations.
func zipfStream(r *rand.Rand, z *zipf, n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(z.next(r))
	}
	return out
}

// uniformStream pre-draws n uniform destinations over [0, nodes).
func uniformStream(r *rand.Rand, nodes, n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(r.IntN(nodes))
	}
	return out
}

// placement assigns every node to one of servers uniformly at random; the
// benchmark hands the result to the servers as their owned sets and keeps
// it to check the hosts each answer names.
type placement struct {
	owner   []core.ServerID
	ownedBy [][]core.NodeID
}

func newPlacement(r *rand.Rand, nodes, servers int) *placement {
	p := &placement{owner: make([]core.ServerID, nodes), ownedBy: make([][]core.NodeID, servers)}
	for i := range p.owner {
		s := r.IntN(servers)
		p.owner[i] = core.ServerID(s)
		p.ownedBy[s] = append(p.ownedBy[s], core.NodeID(i))
	}
	return p
}

func (p *placement) ownerOf(nd core.NodeID) core.ServerID { return p.owner[nd] }

// hostsOwner reports whether hosts names the node's owner.
func (p *placement) hostsOwner(nd core.NodeID, hosts []core.ServerID) bool {
	for _, h := range hosts {
		if h == p.owner[nd] {
			return true
		}
	}
	return false
}

// balancedNames derives the name of every node of the balanced binary tree
// namespace.NewBalanced(2, levels) builds, from the construction rule alone:
// nodes are numbered breadth-first from the root (0), node i's children are
// 2i+1 (label n0) and 2i+2 (label n1).
func balancedNames(levels int) []string {
	n := (1 << levels) - 1
	names := make([]string, n)
	names[0] = "/"
	for i := 1; i < n; i++ {
		parent := (i - 1) / 2
		prefix := names[parent]
		if parent == 0 {
			prefix = ""
		}
		names[i] = prefix + "/n" + strconv.Itoa((i-1)%2)
	}
	return names
}

// walkedNames derives every node's name by walking parent links and labels,
// a path independent of the tree's own (memoized) name builder.
func walkedNames(t *namespace.Tree) []string {
	names := make([]string, t.Len())
	names[0] = "/" + t.Label(0)
	for i := 1; i < t.Len(); i++ {
		p := t.Parent(namespace.NodeID(i))
		if p == 0 && t.Label(0) == "" {
			names[i] = "/" + t.Label(namespace.NodeID(i))
		} else {
			names[i] = names[p] + "/" + t.Label(namespace.NodeID(i))
		}
	}
	return names
}
