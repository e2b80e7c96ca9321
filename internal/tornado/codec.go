package tornado

import (
	"fmt"
	"math/rand"

	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/peel"
)

// Codec is an immutable Tornado code instance for a fixed (k, n, packetLen,
// seed). Construction materializes the cascade graphs; Encode and decoders
// share them read-only, so one Codec can serve many concurrent sessions
// (the digital fountain server encodes once; every receiver decodes with
// the same graphs, derived from the seed carried in the session descriptor).
type Codec struct {
	params    Params
	k, n      int
	packetLen int
	seed      int64

	// Value nodes: ids [0, numValues). Ids [0,k) are source packets;
	// the rest are cascade check layers in order. Packet index i < numValues
	// delivers value i; packet indices [numValues, n) deliver dense checks.
	numValues int

	// Global check list: cascade checks first (check c computes value
	// checkOwn[c]), then dense rows (checkOwn = -1).
	checkNeighbors [][]int32 // value ids feeding each check
	checkOwn       []int32   // value id computed by the check, -1 for dense rows

	levels      []int   // cascade layer sizes, outermost first
	denseInputs int     // size of the layer covered by the dense tail
	denseStart  int     // first check id of the dense tail
	design      *design // LP-optimized left degree distribution (nil if no cascade)

	// engine is the code as every decoder of it sees it: the k sources are
	// the systematic prefix, cascade check j is static row j (its value is
	// column k+j, so L = numValues), and the packets past k are read through
	// NeighborsInto.
	engine peel.Code
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

// New constructs a Tornado codec. n must exceed k (the paper always uses
// n = 2k); packetLen is arbitrary positive. The seed determines the random
// graphs: sender and receivers must agree on it (it travels in the session
// descriptor, like the "graph structure agreed in advance" of §5.1).
func New(p Params, k, n, packetLen int, seed int64) (*Codec, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("tornado: invalid k=%d n=%d", k, n)
	}
	if packetLen <= 0 {
		return nil, fmt.Errorf("tornado: invalid packetLen %d", packetLen)
	}
	c := &Codec{params: p, k: k, n: n, packetLen: packetLen, seed: seed}
	sizes, dense := planCascade(k, n-k, p.denseTarget())
	c.levels = sizes

	// LP-design the left degree distribution for the loss fraction a
	// receiver of (1+ε)k out of n uniformly sampled packets presents.
	delta := 1 - (1+p.targetOverhead())*float64(k)/float64(n)
	if delta < 0.05 {
		delta = 0.05
	}
	var counts map[int]int
	if len(sizes) > 0 {
		dd, err := designDistribution(delta, 0.5, p.MaxDegree)
		if err != nil {
			return nil, err
		}
		c.design = dd
		counts = dd.nodeCounts(k) // re-quantized per level below
	}

	// Allocate value ids and build cascade graphs.
	c.numValues = k
	for _, s := range sizes {
		c.numValues += s
	}
	c.n = n
	totalChecks := (c.numValues - k) + dense
	c.checkNeighbors = make([][]int32, 0, totalChecks)
	c.checkOwn = make([]int32, 0, totalChecks)

	layerOff := 0 // value id of first node in the input layer
	layerSize := k
	valOff := k // value id of first node in the layer being created
	for li, s := range sizes {
		if layerSize != k {
			counts = c.design.nodeCounts(layerSize)
		}
		g := newBigraph(layerSize, s, counts, rand.New(rand.NewSource(mix(seed, int64(li+1)))))
		for ci, ns := range g.neighbors {
			for i := range ns {
				ns[i] += int32(layerOff)
			}
			c.checkNeighbors = append(c.checkNeighbors, ns)
			c.checkOwn = append(c.checkOwn, int32(valOff+ci))
		}
		layerOff = valOff
		layerSize = s
		valOff += s
	}

	// Dense tail over the last layer (or directly over the source when the
	// cascade is empty, which happens for small k).
	c.denseStart = len(c.checkNeighbors)
	c.denseInputs = layerSize
	weight := p.DenseRowWeight
	if weight == 0 {
		weight = autoDenseWeight(layerSize)
	}
	if weight > layerSize {
		weight = layerSize
	}
	drng := rand.New(rand.NewSource(mix(seed, -7)))
	perm := make([]int, layerSize)
	for r := 0; r < dense; r++ {
		for i := range perm {
			perm[i] = i
		}
		// Partial Fisher-Yates: first `weight` entries are a uniform sample
		// without replacement.
		for i := 0; i < weight; i++ {
			j := i + drng.Intn(layerSize-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		ns := make([]int32, weight)
		for i := 0; i < weight; i++ {
			ns[i] = int32(layerOff + perm[i])
		}
		c.checkNeighbors = append(c.checkNeighbors, ns)
		c.checkOwn = append(c.checkOwn, -1)
	}

	c.engine = peel.Code{
		K: k, N: n, PacketLen: packetLen, Systematic: k,
		Draw: c, CheckSrc: c.checkNeighbors[:c.denseStart],
	}
	return c, nil
}

// autoDenseWeight picks the per-row weight of the dense tail: 8 + 2·log2 of
// the input count, enough for the random binary matrix to be full rank with
// overwhelming probability while keeping maintenance cost low.
func autoDenseWeight(inputs int) int {
	lg := 0
	for s := inputs; s > 1; s >>= 1 {
		lg++
	}
	w := 8 + 2*lg
	if w < 8 {
		w = 8
	}
	return w
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

// K implements code.Codec.
func (c *Codec) K() int { return c.k }

// N implements code.Codec.
func (c *Codec) N() int { return c.n }

// PacketLen implements code.Codec.
func (c *Codec) PacketLen() int { return c.packetLen }

// Seed returns the graph seed (carried in the session descriptor).
func (c *Codec) Seed() int64 { return c.seed }

// Levels returns the cascade layer sizes (excluding the dense tail) for
// instrumentation and tests. The returned slice must not be modified.
func (c *Codec) Levels() []int { return c.levels }

// DenseSize returns (inputs, rows) of the dense tail.
func (c *Codec) DenseSize() (inputs, rows int) {
	return c.denseInputs, len(c.checkNeighbors) - c.denseStart
}

// Encode implements code.Codec: it computes every cascade layer and the
// dense tail. The first k output packets alias src.
func (c *Codec) Encode(src [][]byte) ([][]byte, error) {
	if err := code.CheckSrc(src, c.k, c.packetLen); err != nil {
		return nil, err
	}
	vals := make([][]byte, c.numValues)
	copy(vals, src)
	out := make([][]byte, c.n)
	copy(out, src)
	// Backing store for all produced packets, one allocation.
	store := make([]byte, (c.n-c.k)*c.packetLen)
	next := 0
	alloc := func() []byte {
		p := store[next*c.packetLen : (next+1)*c.packetLen]
		next++
		return p
	}
	for ci, ns := range c.checkNeighbors {
		p := alloc()
		for _, v := range ns {
			gf.XORSlice(p, vals[v])
		}
		own := c.checkOwn[ci]
		if own >= 0 {
			vals[own] = p
			out[own] = p
		} else {
			out[c.numValues+(ci-c.denseStart)] = p
		}
	}
	return out, nil
}

// NeighborsInto writes the value ids XORed into packet index into buf
// (reused if capacity allows) and returns it: a value's packet (index <
// numValues) is the value itself, a dense-tail packet its check's inputs.
func (c *Codec) NeighborsInto(index uint32, buf []int) []int {
	buf = buf[:0]
	if int(index) < c.numValues {
		return append(buf, int(index))
	}
	for _, v := range c.checkNeighbors[c.denseStart+int(index)-c.numValues] {
		buf = append(buf, int(v))
	}
	return buf
}

// MeanDegree returns the mean length of NeighborsInto over the packets past
// the source.
func (c *Codec) MeanDegree() float64 {
	edges := c.numValues - c.k
	for _, ns := range c.checkNeighbors[c.denseStart:] {
		edges += len(ns)
	}
	return float64(edges) / float64(c.n-c.k)
}

// NewDecoder implements code.Codec.
func (c *Codec) NewDecoder() code.Decoder { return peel.NewDecoder(&c.engine) }
