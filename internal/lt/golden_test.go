package lt

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestGoldenDecodePins pins LT packets-to-decode on the shared peeling
// engine (internal/peel) over a small (k, seed, base, loss) table. The
// `old` column is what the engine needed on the same streams before its
// endgame became inactivation decoding behind the exact gate (its
// elimination was capped at max(768, K/8) unknowns and waited out a floor
// of 8 packets after each failure) — kept so the gain stays visible: the
// engine is now done at the full-rank packet, never later than before.
func TestGoldenDecodePins(t *testing.T) {
	for _, tc := range []struct {
		k             int
		seed          int64
		base          uint32
		loss          float64
		received, old int
	}{
		{10, 1, 0, 0.2, 13, 13},
		{100, 7, 0, 0, 110, 112},
		{100, 7, 1 << 28, 0.1, 104, 107},
		{1000, 42, 0, 0, 1000, 1378},
		{1000, 42, 0, 0.3, 1003, 1036},
		{1000, 1998, 3 << 29, 0.2, 1008, 1081},
		{3000, 5, 0, 0.1, 3003, 3179},
		{10000, 1, 1 << 30, 0, 10004, 10871},
	} {
		c, err := New(tc.k, 16, tc.seed, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed + 1))
		src := randomSrc(t, rng, tc.k, 16)
		got := decodeStream(t, c, src, tc.base, tc.loss, rng)
		if got != tc.received {
			t.Errorf("{%d, %d, %d, %v, %d, %d}, // want received=%d",
				tc.k, tc.seed, tc.base, tc.loss, got, tc.old, tc.received)
		}
	}
}

// TestGoldenNeighborPins pins the neighbor sets — the advance agreement
// old senders and new receivers must share — as literal vectors and as a
// hash over index ranges reaching the top of the index space. k=10000
// draws degrees past 256, covering the set-based duplicate check.
func TestGoldenNeighborPins(t *testing.T) {
	for _, tc := range []struct {
		k        int
		seed     int64
		c, delta float64
		hash     uint64
	}{
		{1, -1, 0, 0, 0x9a76784b3e9e41a5},
		{2, 7777, 0, 0, 0x672a184854dda076},
		{7, 99, 0.2, 0.3, 0xc5705acaea25ded0},
		{1000, 1998, 0, 0, 0xcb0eab524f35aab7},
		{10000, 1, 0, 0, 0x2fc7f351b4b2fe92},
	} {
		c, err := New(tc.k, 8, tc.seed, tc.c, tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var nb []int
		var b [4]byte
		word := func(v uint32) {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
		maxDeg := 0
		for _, base := range []uint32{0, 1 << 28, 1<<32 - 3000} {
			for i := uint32(0); i < 3000; i++ {
				nb = c.NeighborsInto(base+i, nb)
				if len(nb) > maxDeg {
					maxDeg = len(nb)
				}
				word(uint32(len(nb)))
				for _, v := range nb {
					word(uint32(v))
				}
			}
		}
		if tc.k == 10000 && maxDeg <= 256 {
			t.Errorf("k=10000: max degree %d never reached the set-based path", maxDeg)
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("{%d, %d, %v, %v, %#x}, // want %#x", tc.k, tc.seed, tc.c, tc.delta, got, tc.hash)
		}
	}
	c, err := New(1000, 8, 1998, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		index uint32
		want  []int
	}{
		{0, []int{574, 7}},
		{1, []int{679, 495}},
		{12345, []int{992, 286, 846}},
		{1 << 31, []int{796, 812}},
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
