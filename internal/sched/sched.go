// Package sched implements the paper's layered packet-transmission
// schedule (§7.1.2, Table 5, Figure 7).
//
// The encoding of n packets is divided into blocks of B = 2^(g-1) packets
// for g layers. Transmission proceeds in rounds; in each round every layer
// sends a fixed block-relative slot set, the same in all blocks, with
// per-round slot counts 1, 1, 2, 4, ..., 2^(g-2) for layers 0..g-1 —
// giving the geometric cumulative rates of the layered multicast scheme
// (a receiver at level i gets 2^i slots per block per round).
//
// The slot sets are derived from the reverse binary encoding described in
// the paper. Writing j0 = round mod 2^(g-1) and rev_m for the m-bit
// reversal:
//
//	layer i >= 1: the 2^(i-1) slots whose (g-i)-bit prefix equals
//	              rev_(g-i)(j0) XOR ((2^(g-1-i)-1) << 1)
//	layer 0:      the single slot rev_(g-1)(j0) XOR (2^(g-1)-1)
//
// This reproduces Table 5 exactly and satisfies the One Level Property: a
// receiver subscribed to levels 0..l receives every one of the B slots
// exactly once per 2^(g-1-l) rounds, with no duplicates in between — so at
// a fixed subscription level, no duplicate packet arrives before the whole
// encoding has been seen (§7.1.2). Each individual layer likewise cycles
// through all B slots without repeats every 2^(g-i) rounds (for i >= 1;
// layer 0 every 2^(g-1) rounds).
package sched

import "fmt"

// Schedule generates the per-round slot sets for a g-layer transmission.
type Schedule struct {
	g int
	b int // block size, 2^(g-1)
}

// New constructs a schedule with g >= 1 layers.
func New(g int) (*Schedule, error) {
	if g < 1 || g > 30 {
		return nil, fmt.Errorf("sched: invalid layer count %d", g)
	}
	return &Schedule{g: g, b: 1 << (g - 1)}, nil
}

// Layers returns the number of layers g.
func (s *Schedule) Layers() int { return s.g }

// BlockSize returns B = 2^(g-1), the number of packets per schedule block.
func (s *Schedule) BlockSize() int { return s.b }

// SlotsPerRound returns the number of block-relative slots layer i sends
// each round (Table 5's "bandwidth per round"): 1 for layers 0 and 1,
// 2^(i-1) for layer i >= 1.
func (s *Schedule) SlotsPerRound(layer int) int {
	if layer == 0 {
		return 1
	}
	return 1 << (layer - 1)
}

// CumulativeSlotsPerRound returns the slots per round received at
// subscription level l (layers 0..l): 2^l.
func (s *Schedule) CumulativeSlotsPerRound(level int) int {
	return 1 << level
}

// Period returns the number of rounds after which layer i has sent every
// slot of the block exactly once.
func (s *Schedule) Period(layer int) int {
	if layer == 0 {
		return s.b
	}
	return 1 << (s.g - layer)
}

// CumulativePeriod returns the number of rounds a level-l subscriber needs
// to see the whole block exactly once: 2^(g-1-l).
func (s *Schedule) CumulativePeriod(level int) int {
	return 1 << (s.g - 1 - level)
}

// reverseBits reverses the low `width` bits of v.
func reverseBits(v, width int) int {
	r := 0
	for i := 0; i < width; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// slotBase returns the first block-relative slot layer i sends in the
// given round; the layer's SlotsPerRound slots are consecutive from it.
// This is the one home of the reverse-binary slot derivation — both slot
// enumeration and packet-index expansion build on it.
func (s *Schedule) slotBase(layer, round int) int {
	if layer < 0 || layer >= s.g {
		panic(fmt.Sprintf("sched: layer %d out of range [0,%d)", layer, s.g))
	}
	if s.g == 1 {
		return 0 // single layer, single slot per block
	}
	j0 := round % s.b
	if layer == 0 {
		return reverseBits(j0, s.g-1) ^ (s.b - 1)
	}
	prefixBits := s.g - layer
	mask := ((1 << (s.g - 1 - layer)) - 1) << 1
	prefix := reverseBits(j0%(1<<prefixBits), prefixBits) ^ mask
	return prefix << (layer - 1)
}

// AppendSlots appends the block-relative slots layer i sends in the given
// round (0-based) to dst and returns the extended slice: SlotsPerRound(layer)
// entries, ascending. Callers reuse one scratch buffer across rounds.
func (s *Schedule) AppendSlots(dst []int, layer, round int) []int {
	base := s.slotBase(layer, round)
	for i := 0; i < s.SlotsPerRound(layer); i++ {
		dst = append(dst, base+i)
	}
	return dst
}

// AppendPacketIndices expands the round's slots for a layer into
// encoding-packet indices for an encoding of n packets, appended to dst:
// slot t yields t, t+B, t+2B, ... (one per block), skipping indices >= n
// when the last block is partial, in block-major, slot-minor order.
// Steady-state carousel emission walks the schedule through a reused
// scratch slice, so packet index generation costs no allocations per round.
func (s *Schedule) AppendPacketIndices(dst []int, layer, round, n int) []int {
	base := s.slotBase(layer, round)
	slotCount := s.SlotsPerRound(layer)
	blocks := (n + s.b - 1) / s.b
	for b := 0; b < blocks; b++ {
		for i := 0; i < slotCount; i++ {
			if idx := b*s.b + base + i; idx < n {
				dst = append(dst, idx)
			}
		}
	}
	return dst
}
