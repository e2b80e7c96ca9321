package tornado

import (
	"maps"
	"math/rand"
	"slices"
)

// bigraph is a random bipartite graph between `left` value nodes and
// `right` check nodes. neighbors[c] lists the left indices (0-based within
// the layer) feeding check c, in increasing order; the lists are views of
// one array. The construction is deterministic given the
// rng state, so a sender and receiver sharing the session seed derive
// identical graphs.
type bigraph struct {
	left, right int
	neighbors   [][]int32
}

// newBigraph builds the irregular graph of Luby et al. [8]: left node
// degrees follow the truncated heavy-tail distribution, and each left node
// of degree >= 3 connects to distinct uniformly random checks, which makes
// the right degrees binomial ≈ Poisson — the heavy-tail/Poisson pair is the
// capacity-approaching combination whose iterative-decoding threshold sits
// within O(1/MaxDegree) of optimal, i.e. reception overhead ε ≈ 1/D.
//
// Degree-2 left nodes get special treatment: node t is wired to the
// consecutive checks (π(t), π(t+1)) of a random check permutation π, so the
// subgraph induced by degree-2 nodes is a simple path — cycle-free. Without
// this, pairs of degree-2 nodes sharing both checks (4-cycles) appear with
// constant probability per graph and each one is an unrecoverable two-packet
// core: the decoder would stall until one of a handful of specific packets
// arrives, which is exactly the bimodal overhead blow-up we must avoid (the
// same device caps the number of degree-2 nodes at right-1 and promotes the
// excess to degree 3, keeping the stability condition strictly satisfied).
func newBigraph(left, right int, counts map[int]int, rng *rand.Rand) *bigraph {
	if left <= 0 || right <= 0 {
		panic("tornado: empty graph side")
	}
	// Copy: the degree-2 cap below must not mutate the caller's map.
	cp := make(map[int]int, len(counts))
	for d, c := range counts {
		cp[d] = c
	}
	counts = cp
	if right >= 2 && counts[2] > right-1 {
		counts[3] += counts[2] - (right - 1)
		counts[2] = right - 1
	}
	// Assign degrees to left nodes in a shuffled order so degree classes
	// are spread uniformly.
	leftDeg := make([]int32, left)
	pos, edges := 0, 0
	for _, d := range slices.Sorted(maps.Keys(counts)) {
		for i := 0; i < counts[d]; i++ {
			leftDeg[pos] = int32(d)
			pos++
		}
		edges += min(d, right) * counts[d]
	}
	rng.Shuffle(left, func(i, j int) { leftDeg[i], leftDeg[j] = leftDeg[j], leftDeg[i] })

	// Random check ordering for the degree-2 path.
	perm := rng.Perm(right)
	next2 := 0

	// Draw each left node's checks, in node order, into to[e]; then lay the
	// edges out by check (CSR), each check's nodes in increasing order.
	to := make([]int32, 0, edges)
	for _, d := range leftDeg {
		if d == 2 && right >= 2 {
			to = append(to, int32(perm[next2]), int32(perm[next2+1]))
			next2++
			continue
		}
		// Sample d distinct checks by rejection (d << right in practice).
		for node := len(to); len(to)-node < min(int(d), right); {
			if c := int32(rng.Intn(right)); !slices.Contains(to[node:], c) {
				to = append(to, c)
			}
		}
	}
	off := make([]int32, right+1) // check c's end in flat; its start once filled
	for _, c := range to {
		off[c]++
	}
	for c := 1; c <= right; c++ {
		off[c] += off[c-1]
	}
	flat := make([]int32, edges)
	for i, e := left-1, edges; i >= 0; i-- {
		for n := min(int(leftDeg[i]), right); n > 0; n-- {
			e--
			off[to[e]]--
			flat[off[to[e]]] = int32(i)
		}
	}
	g := &bigraph{left: left, right: right, neighbors: make([][]int32, right)}
	for c := range g.neighbors {
		g.neighbors[c] = flat[off[c]:off[c+1]:off[c+1]]
	}
	return g
}

// edgeCount returns the total number of edges (after duplicate repair).
func (g *bigraph) edgeCount() int {
	n := 0
	for _, ns := range g.neighbors {
		n += len(ns)
	}
	return n
}
