package raptor

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// goldenStream feeds indices base, base+1, ... to a fresh decoder, dropping
// each with probability loss, and returns the decoder's counters at done.
func goldenStream(t *testing.T, k int, seed int64, base int, loss float64) (received, released, xors int) {
	t.Helper()
	const pl = 16
	c := mustNew(t, k, pl, seed)
	src := testSrc(t, k, pl, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	dec := c.NewDecoder()
	for i := base; !dec.Done(); i++ {
		if i > base+4*k+1024 {
			t.Fatalf("k=%d seed=%d base=%d loss=%.2f: no decode", k, seed, base, loss)
		}
		if rng.Float64() < loss {
			continue
		}
		pkts, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(i, pkts[0]); err != nil {
			t.Fatal(err)
		}
	}
	checkSource(t, dec, src)
	counters := dec.(interface {
		Released() int
		XORs() int
	})
	return dec.Received(), counters.Released(), counters.XORs()
}

// TestGoldenDecodePins holds the decoder observably fixed: packets-to-
// decode, released columns and payload XORs over systematic-with-loss,
// repair-only and far-offset streams. Released counts the columns the one
// solve resolved from coded equations (every column not received
// verbatim; 0 when the K systematic packets arrive), XORs every payload
// XOR of the decode: known columns folded into right-hand sides plus the
// solve's own. The `old` column is the packets-to-decode before the
// decoder's endgame became inactivation decoding behind the exact gate;
// every row is now done at the full-rank packet, never later than before.
func TestGoldenDecodePins(t *testing.T) {
	for _, tc := range []struct {
		k                        int
		seed                     int64
		base                     int
		loss                     float64
		received, released, xors int
		old                      int
	}{
		{10, 1, 0, 0.2, 10, 0, 0, 10},
		{100, 1, 0, 0, 100, 0, 0, 100},
		{100, 7, 0, 0.1, 108, 23, 390, 108},
		{100, 7, 100, 0, 103, 114, 718, 110},
		{1000, 42, 0, 0.1, 1299, 128, 5767, 1299},
		{1000, 42, 0, 0.3, 1392, 317, 9616, 1401},
		{1000, 42, 1000, 0, 1016, 1024, 11345, 1017},
		{1000, 1998, 1 << 28, 0.2, 1031, 1024, 8908, 1037},
		{3000, 5, 0, 0.5, 3915, 1518, 53339, 3915},
		{3000, 5, 3000, 0.1, 3052, 3036, 33789, 3052},
		{10000, 1, 10000, 0, 10057, 10059, 143264, 10220},
	} {
		received, released, xors := goldenStream(t, tc.k, tc.seed, tc.base, tc.loss)
		if received != tc.received || released != tc.released || xors != tc.xors {
			t.Errorf("{%d, %d, %d, %v, %d, %d, %d, %d}, // want received=%d released=%d xors=%d",
				tc.k, tc.seed, tc.base, tc.loss, received, released, xors, tc.old, tc.received, tc.released, tc.xors)
		}
	}
}

// TestGoldenNeighborPins pins the neighbor sets — the advance agreement
// old senders and new receivers must share — as literal vectors and as a
// hash over index ranges reaching the systematic prefix, the repair
// stream and the top of the index space.
func TestGoldenNeighborPins(t *testing.T) {
	for _, tc := range []struct {
		k    int
		seed int64
		hash uint64
	}{
		{1, -1, 0xae6c7ef8f03531e6},
		{2, 7777, 0x58f0c49e6d438875},
		{300, 77, 0x65af1595ecac6936},
		{1000, 1998, 0x4851ac709920065e},
		{10000, 1, 0x27ce31f5243dc486},
	} {
		c := mustNew(t, tc.k, 8, tc.seed)
		h := fnv.New64a()
		var nb []int
		var b [4]byte
		word := func(v uint32) {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
		for _, base := range []uint32{0, uint32(tc.k), 1 << 28, 1<<32 - 3000} {
			for i := uint32(0); i < 3000; i++ {
				nb = c.NeighborsInto(base+i, nb)
				word(uint32(len(nb)))
				for _, v := range nb {
					word(uint32(v))
				}
			}
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("{%d, %d, %#x}, // want %#x", tc.k, tc.seed, got, tc.hash)
		}
	}
	c := mustNew(t, 1000, 8, 1998)
	for _, tc := range []struct {
		index uint32
		want  []int
	}{
		{999, []int{999}},
		{1000, []int{446, 288}},
		{1001, []int{47, 540, 33}},
		{1 << 31, []int{564, 52}},
	} {
		got := c.NeighborsInto(tc.index, nil)
		if len(got) != len(tc.want) {
			t.Errorf("index %d: neighbors %v, want %v", tc.index, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("index %d: neighbors %v, want %v", tc.index, got, tc.want)
				break
			}
		}
	}
}
