package raptor

import "testing"

// FuzzRaptorNeighbors: for arbitrary (seed, index, k), neighbor-set
// generation over the intermediate symbols must be deterministic (two
// invocations agree), in-range, duplicate-free, consistent with Degree,
// and — the systematic contract — the identity singleton {index} for every
// index below k. Encoder and decoder derive neighbor sets independently
// from the descriptor, so any divergence corrupts packets silently; the
// property is fuzzed rather than spot-checked.
func FuzzRaptorNeighbors(f *testing.F) {
	f.Add(int64(1998), uint32(0), uint16(100))
	f.Add(int64(-1), uint32(1<<31), uint16(1))
	f.Add(int64(0), uint32(4294967295), uint16(4095))
	f.Add(int64(7777), uint32(12345), uint16(2))
	f.Fuzz(func(t *testing.T, seed int64, index uint32, kRaw uint16) {
		k := int(kRaw)%4096 + 1 // arbitrary k, clamped to a valid, fast range
		c, err := New(k, 8, seed)
		if err != nil {
			t.Fatalf("New(k=%d): %v", k, err)
		}
		l := c.Intermediates()
		if l < k {
			t.Fatalf("l=%d below k=%d", l, k)
		}
		a := c.NeighborsInto(index, nil)
		b := c.NeighborsInto(index, make([]int, 0, len(a)))
		if len(a) != len(b) {
			t.Fatalf("nondeterministic degree: %d vs %d", len(a), len(b))
		}
		if d := c.Degree(index); d != len(a) {
			t.Fatalf("Degree=%d but %d neighbors", d, len(a))
		}
		if int(index) < k {
			if len(a) != 1 || a[0] != int(index) {
				t.Fatalf("systematic index %d has neighbors %v, want {%d}", index, a, index)
			}
			return
		}
		if len(a) < 1 || len(a) > l {
			t.Fatalf("degree %d out of [1,%d]", len(a), l)
		}
		seen := make(map[int]bool, len(a))
		for i, nb := range a {
			if nb != b[i] {
				t.Fatalf("nondeterministic neighbor %d: %d vs %d", i, nb, b[i])
			}
			if nb < 0 || nb >= l {
				t.Fatalf("neighbor %d out of [0,%d)", nb, l)
			}
			if seen[nb] {
				t.Fatalf("duplicate neighbor %d", nb)
			}
			seen[nb] = true
		}
	})
}
