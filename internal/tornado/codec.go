package tornado

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/code"
	"repro/internal/peel"
)

// Codec is an immutable Tornado code instance for a fixed (k, n, packetLen,
// seed). Construction materializes the cascade graphs; encoders and decoders
// share them read-only, so one Codec can serve many concurrent sessions
// (the digital fountain server encodes once; every receiver decodes with
// the same graphs, derived from the seed carried in the session descriptor).
type Codec struct {
	// Code is what every decoder of the code runs on, and the sizes,
	// encoder and decoder the codec satisfies code.Codec through: the k
	// sources are the systematic prefix, cascade check j is static row j
	// (its value is column k+j, sent verbatim as packet k+j), and a
	// dense-tail packet is its row of a peel.Table.
	peel.Code

	params Params
	seed   int64

	// Value nodes: ids [0, numValues). Ids [0,k) are source packets;
	// the rest are cascade check layers in order. Packet index i < numValues
	// delivers value i; packet indices [numValues, n) deliver dense checks.
	numValues int

	// Global check list: cascade checks first (check c computes value
	// k+c), then dense rows (dense row r is packet numValues+r).
	checkNeighbors [][]int32 // value ids feeding each check

	levels      []int // cascade layer sizes, outermost first
	denseInputs int   // size of the layer covered by the dense tail
	denseStart  int   // first check id of the dense tail
}

// planCascade computes the cascade layer sizes for a check budget l over a
// source of size k: halve the remaining budget until it fits the dense
// tail, never letting a layer exceed half its input layer.
func planCascade(k, l, denseTarget int) (sizes []int, dense int) {
	rem := l
	prev := k
	for rem > denseTarget && rem >= 8 && prev >= 4 {
		s := rem / 2
		if s > prev/2 {
			s = prev / 2
		}
		if s < 1 {
			break
		}
		sizes = append(sizes, s)
		rem -= s
		prev = s
	}
	return sizes, rem
}

// New constructs a Tornado codec. n must be a whole stretch factor s·k
// with s in 2..16 (the paper always uses n = 2k): the degree design is the
// table's entry for s. packetLen is arbitrary positive. The seed determines
// the random graphs: sender and receivers must agree on it (it travels in
// the session descriptor, like the "graph structure agreed in advance" of
// §5.1).
func New(p Params, k, n, packetLen int, seed int64) (*Codec, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if k <= 0 || n%k != 0 || n/k < minStretch || n/k > maxStretch {
		return nil, fmt.Errorf("tornado: n=%d for k=%d is not a whole stretch factor in %d..%d", n, k, minStretch, maxStretch)
	}
	if packetLen <= 0 {
		return nil, fmt.Errorf("tornado: invalid packetLen %d", packetLen)
	}
	c := &Codec{params: p, seed: seed}
	sizes, dense := planCascade(k, n-k, p.denseTarget())
	c.levels = sizes
	degrees := p.table[n/k-minStretch]

	// Allocate value ids and build cascade graphs.
	c.numValues = k
	for _, s := range sizes {
		c.numValues += s
	}
	totalChecks := (c.numValues - k) + dense
	c.checkNeighbors = make([][]int32, 0, totalChecks)

	layerOff := 0 // value id of first node in the input layer
	layerSize := k
	valOff := k // value id of first node in the layer being created
	for li, s := range sizes {
		g := newBigraph(layerSize, s, degrees.nodeCounts(layerSize), rand.New(rand.NewSource(mix(seed, int64(li+1)))))
		for _, ns := range g.neighbors {
			for i := range ns {
				ns[i] += int32(layerOff)
			}
			c.checkNeighbors = append(c.checkNeighbors, ns)
		}
		layerOff = valOff
		layerSize = s
		valOff += s
	}

	// Dense tail over the last layer (or directly over the source when the
	// cascade is empty, which happens for small k).
	c.denseStart = len(c.checkNeighbors)
	c.denseInputs = layerSize
	// Each dense row XORs 8 + 2·log2 of the inputs, enough for the random
	// binary matrix to be full rank with overwhelming probability while
	// keeping maintenance cost low.
	weight := min(8+2*(bits.Len(uint(layerSize))-1), layerSize)
	drng := rand.New(rand.NewSource(mix(seed, -7)))
	perm := make([]int, layerSize)
	for i := range perm {
		perm[i] = i
	}
	swaps := make([]int, weight)
	for r := 0; r < dense; r++ {
		// Partial Fisher-Yates: first `weight` entries are a uniform sample
		// without replacement.
		ns := make([]int32, weight)
		for i := range weight {
			j := i + drng.Intn(layerSize-i)
			perm[i], perm[j] = perm[j], perm[i]
			swaps[i] = j
			ns[i] = int32(layerOff + perm[i])
		}
		// Undo the swaps, last first, so perm is the identity again at
		// O(weight) instead of O(inputs) per row.
		for i := weight - 1; i >= 0; i-- {
			j := swaps[i]
			perm[i], perm[j] = perm[j], perm[i]
		}
		c.checkNeighbors = append(c.checkNeighbors, ns)
	}

	cascade := c.checkNeighbors[:c.denseStart]
	c.Code = peel.Code{
		Sources: k, Indices: n, PacketBytes: packetLen, Systematic: k, Verbatim: c.numValues,
		Draw:     &peel.Table{First: c.numValues, Rows: c.checkNeighbors[c.denseStart:]},
		CheckSrc: func() [][]int32 { return cascade },
	}
	return c, nil
}

// mix derives a sub-seed; splitmix64-style so levels are decorrelated.
func mix(seed, salt int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Name implements code.Codec.
func (c *Codec) Name() string { return c.params.Variant }

// Seed returns the graph seed (carried in the session descriptor).
func (c *Codec) Seed() int64 { return c.seed }

// Levels returns the cascade layer sizes (excluding the dense tail) for
// instrumentation and tests. The returned slice must not be modified.
func (c *Codec) Levels() []int { return c.levels }

// DenseSize returns (inputs, rows) of the dense tail.
func (c *Codec) DenseSize() (inputs, rows int) {
	return c.denseInputs, len(c.checkNeighbors) - c.denseStart
}

// Interface conformance.
var _ code.Codec = (*Codec)(nil)
