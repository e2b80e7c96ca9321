package peel

import "sort"

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
	// how duplicates are detected: a linear scan for the common degrees
	// (including the soliton spike, which would otherwise allocate a map on
	// a meaningful fraction of packets), a set once quadratic scanning
	// would genuinely bite.
	var dup map[int]struct{}
	if d > 256 {
		dup = make(map[int]struct{}, d)
	}
	for len(buf) < d {
		cand := int(p.next() % uint64(s.L))
		if dup != nil {
			if _, seen := dup[cand]; seen {
				continue
			}
			dup[cand] = struct{}{}
		} else {
			seen := false
			for _, b := range buf {
				if b == cand {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
		}
		buf = append(buf, cand)
	}
	return buf
}
