package tornado

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// oracle is the slow reference decoder: dense GF(2) elimination over every
// equation the code has — one per cascade check (its value is the XOR of
// its neighbors), one per received packet — and all numValues columns. It
// shares nothing with the decoder but the graphs: no propagation, no
// residuals, no gate, no sparse solver.
type oracle struct {
	c       *Codec
	indices []int // distinct received packet indices, in arrival order
	data    [][]byte
}

func (o *oracle) add(index int, data []byte) {
	o.indices = append(o.indices, index)
	o.data = append(o.data, data)
}

// solve eliminates over the cascade equations plus the first n received
// packets. ok reports full column rank; every cascade value is a function
// of the layer below it, so that is exactly "the sources are determined".
func (o *oracle) solve(n int) (sol [][]byte, ok bool) {
	c := o.c
	cascade := c.denseStart
	m := bitmat.New(cascade+n, c.numValues)
	rhs := make([][]byte, cascade+n)
	for ci := 0; ci < cascade; ci++ {
		rhs[ci] = make([]byte, c.packetLen)
		m.Set(ci, c.k+ci, true) // check ci computes value k+ci
		for _, v := range c.checkNeighbors[ci] {
			m.Set(ci, int(v), true)
		}
	}
	for r := 0; r < n; r++ {
		rhs[cascade+r] = append([]byte(nil), o.data[r]...)
		if i := o.indices[r]; i < c.numValues {
			m.Set(cascade+r, i, true) // the packet is value i itself
		} else {
			for _, v := range c.checkNeighbors[c.denseStart+i-c.numValues] {
				m.Set(cascade+r, int(v), true)
			}
		}
	}
	sol, _, ok = bitmat.TrySolve(m, rhs)
	return sol, ok
}

// fullRankAt returns the smallest n at which solve(n) succeeds, given that
// solve(len(indices)) does (rank is monotone in n).
func (o *oracle) fullRankAt() int {
	lo, hi := 0, len(o.indices)
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := o.solve(mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestTornadoAgainstOracle is the differential safety net under the
// decoder: over both variants × {shipped dense target (no cascade at these
// k), a small dense target (a cascade of several levels)} × k × seeds ×
// loss rates, with duplicates mixed in and the carousel cycling until
// done, the decoder must never be done before the sources are determined,
// must return exactly the oracle's solution, and must be done at exactly
// the oracle's full-rank point: the endgame's gate is exact, so the
// decoder is maximum-likelihood.
func TestTornadoAgainstOracle(t *testing.T) {
	const packetLen = 8
	cascaded := func(p Params) Params {
		p.Variant += "-cascade"
		p.DenseTarget = 24
		return p
	}
	type size struct{ k, seeds int }
	small := []size{{1, 6}, {2, 6}, {9, 6}, {40, 6}, {150, 6}, {400, 6}}
	shapes := []struct {
		params Params
		sizes  []size
	}{
		{A(), small},
		{B(), small},
		{cascaded(A()), small},
		{cascaded(B()), small},
		{A(), []size{{1100, 2}}}, // the shipped A with one cascade level
	}
	for _, shape := range shapes {
		for _, sz := range shape.sizes {
			k := sz.k
			for seed := int64(1); seed <= int64(sz.seeds); seed++ {
				loss := []float64{0, 0.1, 0.3, 0.6}[seed%4]
				c, err := New(shape.params, k, 2*k, packetLen, seed*1000+int64(k))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				src := randSource(rng, k, packetLen)
				enc, err := c.Encode(src)
				if err != nil {
					t.Fatal(err)
				}
				name := func() string {
					return fmt.Sprintf("%s k=%d levels=%v seed=%d", shape.params.Variant, k, c.levels, seed)
				}
				d := c.NewDecoder()
				o := &oracle{c: c}
				got := make([]bool, c.n)
				order := rng.Perm(c.n)
				for pass := 0; !d.Done(); pass++ {
					if pass == 50 {
						t.Fatalf("%s: no decode after %d carousel cycles", name(), pass)
					}
					for _, index := range order {
						if d.Done() {
							break
						}
						if rng.Float64() < loss {
							continue
						}
						if n := len(o.indices); n > 0 && rng.Intn(8) == 0 {
							index = o.indices[rng.Intn(n)] // duplicate delivery
						}
						if !got[index] {
							got[index] = true
							o.add(index, enc[index])
						}
						done, err := d.Add(index, enc[index])
						if err != nil {
							t.Fatal(err)
						}
						if done != d.Done() || d.Received() != len(o.indices) {
							t.Fatalf("%s: done=%v Done()=%v Received()=%d after %d distinct",
								name(), done, d.Done(), d.Received(), len(o.indices))
						}
					}
				}
				sol, ok := o.solve(len(o.indices))
				if !ok {
					t.Fatalf("%s: decoder done after %d packets, before the sources are determined",
						name(), len(o.indices))
				}
				dec, err := d.Source()
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range src {
					got := dec[i*len(p) : (i+1)*len(p)]
					if !bytes.Equal(got, sol[i]) || !bytes.Equal(got, p) {
						t.Fatalf("%s: source %d differs from the oracle's or from what was sent", name(), i)
					}
				}
				if at := o.fullRankAt(); len(o.indices) != at {
					t.Errorf("%s loss=%.1f: done at %d distinct packets, the oracle at %d",
						name(), loss, len(o.indices), at)
				}
			}
		}
	}
}
