package sched

import (
	"reflect"
	"testing"
	"testing/quick"
)

// TestTable5Golden reproduces the paper's Table 5 exactly: the packet
// transmission scheme for 4 layers, block size 8, rounds 1..8.
func TestTable5Golden(t *testing.T) {
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][][]int{
		// layer -> rounds 1..8 (paper is 1-based; we use round = rd-1)
		3: {{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}},
		2: {{4, 5}, {0, 1}, {6, 7}, {2, 3}, {4, 5}, {0, 1}, {6, 7}, {2, 3}},
		1: {{6}, {2}, {4}, {0}, {7}, {3}, {5}, {1}},
		0: {{7}, {3}, {5}, {1}, {6}, {2}, {4}, {0}},
	}
	for layer, rounds := range want {
		for rd, slots := range rounds {
			got := s.AppendSlots(nil, layer, rd)
			if !reflect.DeepEqual(got, slots) {
				t.Errorf("layer %d round %d: got %v, want %v", layer, rd+1, got, slots)
			}
		}
	}
}

// TestFigure7 checks the round-4 pattern for g=4 shown in Figure 7:
// layer assignments 1, 0, 2, 2, 3, 3, 3, 3 for slots 0..7 — i.e. slot 0
// is sent by layer 1, slot 1 by layer 0, slots 2-3 by layer 2, 4-7 by 3.
func TestFigure7(t *testing.T) {
	s, _ := New(4)
	round := 3 // paper's round 4
	owner := make(map[int]int)
	for layer := 0; layer < 4; layer++ {
		for _, slot := range s.AppendSlots(nil, layer, round) {
			if prev, dup := owner[slot]; dup {
				t.Fatalf("slot %d sent by layers %d and %d in round 4", slot, prev, layer)
			}
			owner[slot] = layer
		}
	}
	want := map[int]int{0: 1, 1: 0, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 3}
	if !reflect.DeepEqual(owner, want) {
		t.Fatalf("round 4 ownership = %v, want %v", owner, want)
	}
}

// TestOneLevelProperty: a receiver at subscription level l (layers 0..l)
// must see every one of the B slots exactly once per CumulativePeriod(l)
// rounds, with no duplicate inside the period.
func TestOneLevelProperty(t *testing.T) {
	for g := 1; g <= 8; g++ {
		s, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < g; level++ {
			period := s.CumulativePeriod(level)
			for start := 0; start < 2*s.BlockSize(); start += period {
				seen := make(map[int]bool)
				for rd := start; rd < start+period; rd++ {
					for layer := 0; layer <= level; layer++ {
						for _, slot := range s.AppendSlots(nil, layer, rd) {
							if seen[slot] {
								t.Fatalf("g=%d level=%d: duplicate slot %d within period starting at round %d", g, level, slot, start)
							}
							seen[slot] = true
						}
					}
				}
				if len(seen) != s.BlockSize() {
					t.Fatalf("g=%d level=%d: period covered %d of %d slots", g, level, len(seen), s.BlockSize())
				}
			}
		}
	}
}

// TestPerLayerPermutation: each individual layer also cycles through all
// slots without repetition every Period(layer) rounds ("the sender
// transmits a permutation of the entire encoding to each multicast layer").
func TestPerLayerPermutation(t *testing.T) {
	for g := 2; g <= 8; g++ {
		s, _ := New(g)
		for layer := 0; layer < g; layer++ {
			period := s.Period(layer)
			seen := make(map[int]bool)
			for rd := 0; rd < period; rd++ {
				for _, slot := range s.AppendSlots(nil, layer, rd) {
					if seen[slot] {
						t.Fatalf("g=%d layer=%d: slot %d repeated within period", g, layer, slot)
					}
					seen[slot] = true
				}
			}
			if len(seen) != s.BlockSize() {
				t.Fatalf("g=%d layer=%d: period covers %d of %d slots", g, layer, len(seen), s.BlockSize())
			}
		}
	}
}

func TestSlotsPerRound(t *testing.T) {
	s, _ := New(5)
	want := []int{1, 1, 2, 4, 8}
	for layer, w := range want {
		if got := s.SlotsPerRound(layer); got != w {
			t.Errorf("SlotsPerRound(%d) = %d, want %d", layer, got, w)
		}
		if got := len(s.AppendSlots(nil, layer, 3)); got != w {
			t.Errorf("len(AppendSlots(nil, %d, 3)) = %d, want %d", layer, got, w)
		}
	}
	if s.CumulativeSlotsPerRound(3) != 8 {
		t.Error("cumulative slots wrong")
	}
}

func TestPacketIndicesPartialBlock(t *testing.T) {
	s, _ := New(4) // B = 8
	n := 20        // 2.5 blocks
	got := s.AppendPacketIndices(nil, 3, 0, n)
	// Layer 3 round 0: slots 0-3 in each of blocks 0,1,2 -> 0..3, 8..11, 16..19.
	want := []int{0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Slots beyond n are skipped.
	got0 := s.AppendPacketIndices(nil, 0, 0, n) // slot 7 -> 7, 15, 23(skip)
	want0 := []int{7, 15}
	if !reflect.DeepEqual(got0, want0) {
		t.Fatalf("got %v, want %v", got0, want0)
	}
}

func TestQuickNoOverlapAcrossLayers(t *testing.T) {
	// In any round, the slot sets of distinct layers are disjoint.
	err := quick.Check(func(gRaw, roundRaw uint8) bool {
		g := 2 + int(gRaw)%7
		s, _ := New(g)
		round := int(roundRaw)
		seen := map[int]bool{}
		for layer := 0; layer < g; layer++ {
			for _, slot := range s.AppendSlots(nil, layer, round) {
				if seen[slot] {
					return false
				}
				seen[slot] = true
			}
		}
		return len(seen) == s.BlockSize()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("g=0 accepted")
	}
	if _, err := New(31); err == nil {
		t.Fatal("g=31 accepted")
	}
	s, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockSize() != 1 || len(s.AppendSlots(nil, 0, 5)) != 1 {
		t.Fatal("single-layer schedule wrong")
	}
}

func TestSlotsPanicsOnBadLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s, _ := New(3)
	s.AppendSlots(nil, 3, 0)
}
