package lt

import "testing"

// FuzzLTNeighbors: for arbitrary (seed, index, k), neighbor-set generation
// must be deterministic (two invocations agree), in-range, duplicate-free,
// and consistent with Degree. This is the advance agreement the whole
// rateless session rests on — any divergence between an encoder's and a
// decoder's neighbor derivation corrupts every packet silently, so the
// property is fuzzed rather than spot-checked.
func FuzzLTNeighbors(f *testing.F) {
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
		a := c.NeighborsInto(index, nil)
		b := c.NeighborsInto(index, make([]int, 0, len(a)))
		if len(a) != len(b) {
			t.Fatalf("nondeterministic degree: %d vs %d", len(a), len(b))
		}
		if d := c.Degree(index); d != len(a) {
			t.Fatalf("Degree=%d but %d neighbors", d, len(a))
		}
		if len(a) < 1 || len(a) > k {
			t.Fatalf("degree %d out of [1,%d]", len(a), k)
		}
		seen := make(map[int]bool, len(a))
		for i, nb := range a {
			if nb != b[i] {
				t.Fatalf("nondeterministic neighbor %d: %d vs %d", i, nb, b[i])
			}
			if nb < 0 || nb >= k {
				t.Fatalf("neighbor %d out of [0,%d)", nb, k)
			}
			if seen[nb] {
				t.Fatalf("duplicate neighbor %d", nb)
			}
			seen[nb] = true
		}
	})
}
