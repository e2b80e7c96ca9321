package peel

import (
	"slices"
	"testing"
)

// naiveNeighbors is the draw with a map for the duplicate check: the
// sequence NeighborsInto must reproduce, whatever set it keeps.
func naiveNeighbors(s *Sampler, index uint32) []int {
	p := s.stream(index)
	d := s.degree(&p)
	if d >= s.L {
		out := make([]int, s.L)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < d {
		if cand := int(p.next() % uint64(s.L)); !seen[cand] {
			seen[cand] = true
			out = append(out, cand)
		}
	}
	return out
}

// spike is a sampler that always draws degree d over l columns.
func spike(d, l int) *Sampler {
	cdf := make([]float64, d)
	cdf[d-1] = 1
	return &Sampler{Seed: int64(d*7919 + l), CDF: cdf, L: l}
}

// TestNeighborsIntoHighDegree: past degree 256 the open-addressing set
// draws exactly what the map-based check does — with few columns to spare,
// so rejections are frequent, and into a reused buffer — and a warmed draw
// allocates nothing.
func TestNeighborsIntoHighDegree(t *testing.T) {
	var buf []int
	for _, tc := range []struct{ d, l int }{{257, 100000}, {300, 301}, {600, 900}, {1500, 10000}, {256, 300}, {400, 400}} {
		s := spike(tc.d, tc.l)
		for index := uint32(0); index < 40; index++ {
			buf = s.NeighborsInto(index, buf)
			if want := naiveNeighbors(s, index); !slices.Equal(buf, want) {
				t.Fatalf("d=%d L=%d index %d: neighbours differ from the map-based draw", tc.d, tc.l, index)
			}
		}
	}
	s := spike(700, 10000)
	buf = s.NeighborsInto(0, nil)
	index := uint32(0)
	if a := testing.AllocsPerRun(20, func() {
		index++
		buf = s.NeighborsInto(index, buf)
	}); a != 0 {
		t.Fatalf("warmed degree-700 draw: %.1f allocs", a)
	}
}
