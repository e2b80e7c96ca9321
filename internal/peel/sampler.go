package peel

import (
	"math/bits"
	"slices"
	"sort"
)

// Sampler is the advance agreement between a rateless sender and its
// receivers: packet index i's degree and neighbour set are a pure function
// of (Seed, i, CDF, L), so any sender that knows the descriptor can produce
// packet i independently and every receiver derives the same equation. The
// draw sequence is wire format — changing it strands deployed peers.
type Sampler struct {
	Seed int64
	CDF  []float64 // CDF[d-1] = P(degree <= d); the last entry is pinned to 1
	L    int       // neighbours are drawn from [0, L)
}

// prng is a splitmix64 stream. Packet index i's stream is seeded by mixing
// the session seed with i, so every encoding packet is an independent,
// reproducible draw — the property that lets unstaggered mirrors emit
// disjoint useful packets with no coordination beyond distinct indices.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stream returns packet index's PRNG, decorrelated from neighboring
// indices by one full mix round over (seed, index).
func (s *Sampler) stream(index uint32) prng {
	p := prng{state: uint64(s.Seed) ^ (uint64(index)+1)*0xBF58476D1CE4E5B9}
	p.state = p.next()
	return p
}

// degree spends the stream's next draw on a uniform in [0, 1) and binary
// searches the CDF for the first entry covering it.
func (s *Sampler) degree(p *prng) int {
	u := float64(p.next()>>11) / (1 << 53)
	return sort.SearchFloat64s(s.CDF, u) + 1
}

// Degree returns packet index's degree — deterministic, in [1, len(CDF)].
func (s *Sampler) Degree(index uint32) int {
	p := s.stream(index)
	return s.degree(&p)
}

// NeighborsInto writes packet index's neighbour set into buf (reused if
// capacity allows) and returns it: deterministic, duplicate-free, every
// entry in [0, L).
func (s *Sampler) NeighborsInto(index uint32, buf []int) []int {
	p := s.stream(index)
	d := s.degree(&p)
	buf = buf[:0]
	if d >= s.L {
		// Full-degree packet: enumerate rather than reject (coupon-collector
		// rejection at d = L would cost L·ln L draws).
		for i := 0; i < s.L; i++ {
			buf = append(buf, i)
		}
		return buf
	}
	// Rejection sampling keeps the draw sequence identical regardless of
	// how duplicates are detected: a linear scan for the common degrees,
	// and past 32, where the quadratic scan overtakes the cost of the draws
	// themselves, an open-addressing set of at least 2d slots in buf's
	// spare capacity beyond the d neighbours, holding neighbour+1 (0 =
	// empty). Up to degree 256 that is at most 768 ints in all.
	var set []int
	var shift uint
	if d > 32 {
		n := bits.Len(uint(2*d - 1)) // 1<<n >= 2d slots, indexed by a hash's top n bits
		buf = slices.Grow(buf, d+1<<n)
		set, shift = buf[d:d+1<<n], uint(64-n)
		clear(set)
	}
	for len(buf) < d {
		cand := int(p.next() % uint64(s.L))
		if set != nil {
			h := uint64(cand) * 0x9E3779B97F4A7C15 >> shift
			for set[h] != 0 && set[h] != cand+1 {
				h = (h + 1) & uint64(len(set)-1)
			}
			if set[h] != 0 {
				continue
			}
			set[h] = cand + 1
		} else if slices.Contains(buf, cand) {
			continue
		}
		buf = append(buf, cand)
	}
	return buf
}

// MeanDegree is the expected degree of a drawn packet.
func (s *Sampler) MeanDegree() float64 {
	mean, prev := 0.0, 0.0
	for i, c := range s.CDF {
		mean += float64(i+1) * (c - prev)
		prev = c
	}
	return mean
}
