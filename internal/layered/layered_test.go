package layered

import "testing"

func TestJoinOnCleanBurst(t *testing.T) {
	c := New(3)
	// Clean epoch with a burst and no loss -> level up at the SP.
	serial := uint32(0)
	for i := 0; i < 10; i++ {
		serial++
		c.OnPacket(0, serial, false, i >= 8) // last two are burst packets
	}
	serial++
	if lvl := c.OnPacket(0, serial, true, false); lvl != 1 {
		t.Fatalf("level = %d after clean burst epoch, want 1", lvl)
	}
}

func TestNoJoinWithoutBurst(t *testing.T) {
	c := New(3)
	serial := uint32(0)
	for i := 0; i < 10; i++ {
		serial++
		c.OnPacket(0, serial, false, false)
	}
	serial++
	if lvl := c.OnPacket(0, serial, true, false); lvl != 0 {
		t.Fatalf("level = %d without burst evidence, want 0", lvl)
	}
}

func TestDropOnLoss(t *testing.T) {
	c := New(3)
	c.SetLevel(2)
	// Epoch with 50% loss (serial gaps).
	serial := uint32(0)
	for i := 0; i < 10; i++ {
		serial += 2 // every other packet lost
		c.OnPacket(0, serial, false, false)
	}
	serial++
	if lvl := c.OnPacket(0, serial, true, false); lvl != 1 {
		t.Fatalf("level = %d after lossy epoch, want 1", lvl)
	}
}

func TestBurstLossPreventsJoin(t *testing.T) {
	c := New(3)
	serial := uint32(0)
	for i := 0; i < 12; i++ {
		if i == 9 {
			serial += 2 // a loss inside the burst
		} else {
			serial++
		}
		c.OnPacket(0, serial, false, i >= 8)
	}
	serial++
	if lvl := c.OnPacket(0, serial, true, false); lvl != 0 {
		t.Fatalf("level = %d despite burst loss, want 0", lvl)
	}
}

func TestChangesOnlyAtSP(t *testing.T) {
	c := New(3)
	serial := uint32(0)
	for i := 0; i < 50; i++ {
		serial += 3 // heavy loss, but no SP yet
		if lvl := c.OnPacket(0, serial, false, false); lvl != 0 {
			t.Fatalf("level changed between SPs")
		}
	}
	c.SetLevel(2)
	serial += 3
	if lvl := c.OnPacket(0, serial, true, false); lvl != 1 {
		t.Fatalf("no drop at SP: %d", lvl)
	}
}

func TestMinSamplesGuard(t *testing.T) {
	c := New(3)
	c.SetLevel(1)
	// Tiny epoch: no decision even with loss.
	c.OnPacket(0, 5, false, false) // implicit gap unknown (first packet)
	if lvl := c.OnPacket(0, 6, true, false); lvl != 1 {
		t.Fatalf("decision taken below MinSamples: %d", lvl)
	}
}

func TestLevelClamping(t *testing.T) {
	c := New(2)
	c.SetLevel(99)
	if c.Level() != 2 {
		t.Fatal("no clamp high")
	}
	c.SetLevel(-1)
	if c.Level() != 0 {
		t.Fatal("no clamp low")
	}
}

func TestPerLayerSerials(t *testing.T) {
	// Serial gaps are tracked per layer; interleaved arrivals across
	// layers must not count as loss.
	c := New(3)
	c.SetLevel(1)
	for i := uint32(1); i <= 20; i++ {
		c.OnPacket(0, i, false, false)
		c.OnPacket(1, i, false, false)
	}
	if c.lost != 0 {
		t.Fatalf("cross-layer serials counted as loss: %d", c.lost)
	}
}
