package client

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// mapWindow is the pre-ring missingWindow: a FIFO ring over a real map
// set, kept here as the reference oracle for the differential tests. Its
// semantics define the contract the allocation-free ring/bitset window
// must reproduce bit for bit.
type mapWindow struct {
	set  map[uint32]struct{}
	ring [maxTrackedMissing]uint32
	n    int
}

func newMapWindow() *mapWindow { return &mapWindow{set: make(map[uint32]struct{})} }

func (w *mapWindow) add(s uint32) {
	slot := w.n % maxTrackedMissing
	if w.n >= maxTrackedMissing {
		delete(w.set, w.ring[slot])
	}
	w.ring[slot] = s
	w.set[s] = struct{}{}
	w.n++
}

func (w *mapWindow) refund(s uint32) bool {
	if _, ok := w.set[s]; !ok {
		return false
	}
	delete(w.set, s)
	return true
}

// TestMissingWindowDifferentialVsMap drives the ring/bitset window and the
// map-based oracle through identical operation streams — gap inserts that
// overflow the window many times over, refunds of tracked, evicted, and
// never-tracked serials, and serial values straddling the uint32 wrap —
// and requires every refund decision to match.
func TestMissingWindowDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		var w missingWindow
		ref := newMapWindow()
		// A monotonically advancing serial cursor (starting near the wrap
		// half the time) feeds gap serials exactly like the engine does:
		// strictly increasing, never repeating while tracked.
		cursor := uint32(rng.Uint64())
		if trial%2 == 0 {
			cursor = 0xFFFFFFFF - uint32(rng.Intn(2000))
		}
		var issued []uint32
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // a gap: insert 1..40 fresh serials
				n := 1 + rng.Intn(40)
				for i := 0; i < n; i++ {
					w.add(cursor)
					ref.add(cursor)
					issued = append(issued, cursor)
					cursor++
				}
				cursor++ // the received packet that revealed the gap
			case r < 9 && len(issued) > 0: // refund a previously issued serial
				s := issued[rng.Intn(len(issued))]
				got, want := w.refund(s), ref.refund(s)
				if got != want {
					t.Fatalf("trial %d op %d: refund(%d) = %v, oracle %v", trial, op, s, got, want)
				}
			default: // refund a serial that was never tracked
				s := cursor + 1000 + uint32(rng.Intn(1000))
				got, want := w.refund(s), ref.refund(s)
				if got != want {
					t.Fatalf("trial %d op %d: refund(untracked %d) = %v, oracle %v", trial, op, s, got, want)
				}
			}
		}
	}
}

// serialOracle replays the old map-based engine's serial-gap accounting
// (lastSerial map + mapWindow per layer) so whole traces can be pinned
// against the slice/ring engine.
type serialOracle struct {
	lastSerial map[uint8]uint32
	missing    map[uint8]*mapWindow
	lost       int
}

func newSerialOracle() *serialOracle {
	return &serialOracle{lastSerial: make(map[uint8]uint32), missing: make(map[uint8]*mapWindow)}
}

func (o *serialOracle) packet(group uint8, serial uint32) {
	if last, ok := o.lastSerial[group]; ok {
		switch delta := serial - last; {
		case delta == 0:
		case delta < 1<<31:
			o.lost += int(delta - 1)
			if delta > 1 {
				w := o.missing[group]
				if w == nil {
					w = newMapWindow()
					o.missing[group] = w
				}
				lo := last + 1
				if delta-1 > maxTrackedMissing {
					lo = serial - maxTrackedMissing
				}
				for ser := lo; ser != serial; ser++ {
					w.add(ser)
				}
			}
			o.lastSerial[group] = serial
		default:
			if w := o.missing[group]; w != nil && w.refund(serial) {
				o.lost--
			}
		}
	} else {
		o.lastSerial[group] = serial
	}
}

// TestEngineLossDifferentialVsMapOracle replays recorded fault-matrix
// style traces — per-layer serial streams with bursts of loss, reordered
// late arrivals, duplicates, and uint32 wrap — through the engine and
// through the map-based oracle, comparing the lost count after every
// single packet.
func TestEngineLossDifferentialVsMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 40_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 4
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		group  uint8
		serial uint32
	}
	for trial := 0; trial < 8; trial++ {
		// Record a trace: per-layer monotone serial cursors with injected
		// gaps; a queue of reordered packets drains with random delay.
		var trace []ev
		cursors := [4]uint32{}
		if trial%2 == 1 {
			for l := range cursors {
				cursors[l] = 0xFFFFFFFF - uint32(rng.Intn(500)) // exercise wrap
			}
		}
		var delayed []ev
		for i := 0; i < 3000; i++ {
			g := uint8(rng.Intn(4))
			switch r := rng.Intn(20); {
			case r < 2: // burst loss: skip up to 700 serials (overflowing the window)
				cursors[g] += uint32(1 + rng.Intn(700))
			case r == 2: // reorder: this serial arrives later
				delayed = append(delayed, ev{g, cursors[g]})
				cursors[g]++
				continue
			case r == 3 && len(trace) > 0: // duplicate a recent packet
				trace = append(trace, trace[len(trace)-1])
			}
			trace = append(trace, ev{g, cursors[g]})
			cursors[g]++
			if len(delayed) > 0 && rng.Intn(4) == 0 {
				trace = append(trace, delayed[0])
				delayed = delayed[1:]
			}
		}
		eng, err := New(sess.Info(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newSerialOracle()
		for i, e := range trace {
			if _, err := eng.HandlePacket(sess.AppendPacket(nil, 0, e.group, e.serial, 0)); err != nil {
				t.Fatal(err)
			}
			oracle.packet(e.group, e.serial)
			if got := eng.SourceStats(0).Lost; got != oracle.lost {
				t.Fatalf("trial %d packet %d (g=%d s=%d): engine lost %d, oracle %d",
					trial, i, e.group, e.serial, got, oracle.lost)
			}
		}
	}
}

// TestRefundOnBatchBoundary pins the interaction of the ring window with
// batched intake: a gap opened by the last packet of one batch must be
// refundable by a late arrival that is the first packet of the next batch,
// and the refund must also work entirely inside one batch.
func TestRefundOnBatchBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := make([]byte, 20_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := func(serial uint32) []byte { return sess.AppendPacket(nil, 0, 0, serial, 0) }

	// Across a boundary: batch A ends by revealing a gap (2 and 3 lost),
	// batch B leads with the late serial 3.
	eng, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.HandleBatchFrom(0, [][]byte{pkt(1), pkt(4)}); err != nil {
		t.Fatal(err)
	}
	if got := eng.SourceStats(0).Lost; got != 2 {
		t.Fatalf("after batch A: lost = %d, want 2", got)
	}
	if _, err := eng.HandleBatchFrom(0, [][]byte{pkt(3), pkt(5)}); err != nil {
		t.Fatal(err)
	}
	if got := eng.SourceStats(0).Lost; got != 1 {
		t.Fatalf("refund across batch boundary: lost = %d, want 1", got)
	}

	// Entirely within one batch: gap and refund in the same HandleBatchFrom
	// call must land identically.
	eng2, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.HandleBatchFrom(0, [][]byte{pkt(1), pkt(4), pkt(3), pkt(5)}); err != nil {
		t.Fatal(err)
	}
	if got := eng2.SourceStats(0).Lost; got != 1 {
		t.Fatalf("refund within batch: lost = %d, want 1", got)
	}

	// The wrap boundary coinciding with a batch boundary: 0xFFFFFFFE then
	// a batch starting at 1 (gaps 0xFFFFFFFF and 0), refunded by a late
	// 0xFFFFFFFF opening the following batch.
	eng3, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng3.HandleBatchFrom(0, [][]byte{pkt(0xFFFFFFFE)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng3.HandleBatchFrom(0, [][]byte{pkt(1), pkt(2)}); err != nil {
		t.Fatal(err)
	}
	if got := eng3.SourceStats(0).Lost; got != 2 {
		t.Fatalf("wrap gap: lost = %d, want 2", got)
	}
	if _, err := eng3.HandleBatchFrom(0, [][]byte{pkt(0xFFFFFFFF), pkt(3)}); err != nil {
		t.Fatal(err)
	}
	if got := eng3.SourceStats(0).Lost; got != 1 {
		t.Fatalf("wrap refund across batches: lost = %d, want 1", got)
	}
}

// TestHandleBatchFromStraysAndCompletion: stray datagrams inside a batch
// are skipped (first error reported, remaining packets processed), and the
// batch loop stops at decode completion.
func TestHandleBatchFromStraysAndCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data := make([]byte, 8_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One stray mid-batch: both neighbours must still be accounted.
	batch := [][]byte{
		sess.AppendPacket(nil, 0, 0, 1, 0),
		{0xDE, 0xAD}, // stray
		sess.AppendPacket(nil, 1, 0, 2, 0),
	}
	done, err := eng.HandleBatchFrom(0, batch)
	if err == nil {
		t.Fatal("stray datagram reported no error")
	}
	if done {
		t.Fatal("done after two packets")
	}
	if got := eng.SourceStats(0).Received; got != 2 {
		t.Fatalf("received = %d, want 2 (stray skipped, rest processed)", got)
	}
	// Feed everything until done through batches; the loop must stop at
	// completion and report done even with packets remaining in the batch.
	n := sess.Codec().N()
	var all [][]byte
	for i := 0; i < n; i++ {
		all = append(all, sess.AppendPacket(nil, i, 0, uint32(i+10), 0))
	}
	done, err = eng.HandleBatchFrom(0, all)
	if err != nil {
		t.Fatal(err)
	}
	if !done || !eng.Done() {
		t.Fatal("full batch did not complete the decode")
	}
	if _, err := eng.File(); err != nil {
		t.Fatal(err)
	}
}
