package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestReservedCodecRefused: id 2, whole-file Vandermonde until it left the
// wire, is refused like an unassigned id by the sender and by the receiver.
func TestReservedCodecRefused(t *testing.T) {
	const reserved = 2
	data := randData(rand.New(rand.NewSource(3)), 5000)
	cfg := DefaultConfig()
	cfg.Codec = reserved
	if _, err := NewSession(data, cfg); err == nil {
		t.Fatal("NewSession accepted codec 2")
	}
	cfg.Codec = proto.CodecCauchy
	sess, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Info()
	info.Codec = reserved
	if _, err := NewReceiver(info); err == nil {
		t.Fatal("NewReceiver accepted a descriptor naming codec 2")
	}
}

// TestCodecNamesSkipReserved: the name helpers list and resolve only the
// rows the table serves; a reserved id's empty name is no codec.
func TestCodecNamesSkipReserved(t *testing.T) {
	names := CodecNames()
	if len(names) != 6 || slices.Contains(names, "") {
		t.Fatalf("CodecNames() = %q, want six names", names)
	}
	for _, name := range names {
		if id, err := CodecByName(name); err != nil || CodecName(id) != name {
			t.Errorf("CodecByName(%q) = %d, %v", name, id, err)
		}
	}
	for _, name := range []string{"", "vandermonde"} {
		if id, err := CodecByName(name); err == nil {
			t.Errorf("CodecByName(%q) = %d, want an error", name, id)
		}
	}
}

// TestRSBlockBound: a Reed-Solomon block of maxBlockK sources passes and
// one of maxBlockK+1 is refused, as whole-file Cauchy's K and as an
// interleaved block size, by the sender (NewSessionCached) and by the
// receiver (NewReceiver). The Cauchy refusal names the codec to use.
func TestRSBlockBound(t *testing.T) {
	const pl = 16
	data := randData(rand.New(rand.NewSource(5)), maxBlockK*pl)
	for _, id := range []uint8{proto.CodecCauchy, proto.CodecInterleaved} {
		cfg := DefaultConfig()
		cfg.Codec, cfg.PacketLen, cfg.Layers = id, pl, 1
		cfg.InterleaveBlockK = maxBlockK
		sess, err := NewSessionCached(data, cfg, NewBlockCache(0))
		if err != nil {
			t.Fatalf("%s: a block of %d refused: %v", CodecName(id), maxBlockK, err)
		}
		info := sess.Info()
		if _, err := NewReceiver(info); err != nil {
			t.Fatalf("%s: a block of %d refused: %v", CodecName(id), maxBlockK, err)
		}

		// One source more: a file a packet longer, or a larger block size.
		over := data
		if id == proto.CodecCauchy {
			over = append(slices.Clip(data), 1)
			info.K, info.N, info.FileLen = maxBlockK+1, 2*(maxBlockK+1), uint64(len(over))
		} else {
			cfg.InterleaveBlockK = maxBlockK + 1
			info.InterleaveK = maxBlockK + 1
		}
		if _, err := NewSessionCached(over, cfg, NewBlockCache(0)); err == nil {
			t.Errorf("%s: NewSessionCached accepted a block of %d", CodecName(id), maxBlockK+1)
		}
		_, err = NewReceiver(info)
		if err == nil {
			t.Fatalf("%s: NewReceiver accepted a block of %d", CodecName(id), maxBlockK+1)
		}
		if !strings.Contains(err.Error(), "interleaved") {
			t.Errorf("%s: refusal %q does not name interleaved", CodecName(id), err)
		}
	}
}

// rowCost is, per codec row, the construction plus worst-case decode time
// in ns per file byte that EXPERIMENTS.md ("The Reed-Solomon block bound")
// records for the row's largest descriptor in TestCodecRowCost.
var rowCost = map[uint8]float64{
	proto.CodecTornadoA:    240,
	proto.CodecTornadoB:    300,
	proto.CodecCauchy:      4500,
	proto.CodecInterleaved: 4500,
	proto.CodecLT:          125,
	proto.CodecRaptor:      110,
}

// rowCostMargin is the factor over rowCost that TestCodecRowCost allows:
// margin for a shared box whose other tenants take CPU, not room for the
// code to slow down into.
const rowCostMargin = 5

// TestCodecRowCost walks every codec row at the largest descriptor it
// allows within a test-sized file: a Reed-Solomon block of maxBlockK
// 16-byte packets, and K = 10 000 16-byte packets for the others. A
// receiver's construction (NewReceiver) plus its worst-case decode, to the
// SHA-256-checked File, must cost no more per file byte than rowCostMargin
// times the row's recorded cost. The best of three decodes is taken.
func TestCodecRowCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation, not the code, sets the time")
	}
	const pl = 16
	for _, id := range servedIDs() {
		k := 10_000
		if rowOf(id).blockK != nil {
			k = maxBlockK
		}
		cfg := DefaultConfig()
		cfg.Codec, cfg.PacketLen, cfg.Layers = id, pl, 1
		cfg.InterleaveBlockK = maxBlockK
		sess, err := NewSessionCached(randData(rand.New(rand.NewSource(int64(id))), k*pl), cfg, NewBlockCache(0))
		if err != nil {
			t.Fatalf("%s: %v", CodecName(id), err)
		}
		best := time.Duration(1<<63 - 1)
		for range 3 {
			best = min(best, worstCaseDecode(t, sess))
		}
		ns, ceiling := float64(best)/float64(k*pl), rowCostMargin*rowCost[id]
		t.Logf("%-11s k=%5d: %7.1f ms, %5.2f ns per file byte (ceiling %.0f)",
			CodecName(id), k, float64(best)/1e6, ns, ceiling)
		if ns > ceiling {
			t.Errorf("%s: %.2f ns per file byte, ceiling %.0f", CodecName(id), ns, ceiling)
		}
	}
}

// worstCaseDecode times a receiver of sess's descriptor — construction,
// every packet handed to it, File — in the reception that costs it the
// most decode work: a fixed-rate code's packets in a random order, so about
// half of the K it decodes from are coded (for Reed-Solomon, K/2 sources
// lost is the most any reception can miss), and a rateless code's repair
// packets alone. Packets are encoded off the clock.
func worstCaseDecode(t *testing.T, sess *Session) time.Duration {
	codec := sess.Codec()
	k := codec.K()
	order := func(i int) int { return k + i }
	if !sess.Rateless() {
		perm := rand.New(rand.NewSource(9)).Perm(codec.N())
		order = func(i int) int { return perm[i] }
	}
	start := time.Now()
	rcv, err := NewReceiver(sess.Info())
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	for i := 0; !rcv.Done(); i++ {
		if i == 2*k {
			t.Fatalf("%s: not decoded after %d packets", codec.Name(), i)
		}
		idx := order(i)
		pkt := sess.Payload(idx)
		start = time.Now()
		if _, err := rcv.Handle(idx, pkt); err != nil {
			t.Fatal(err)
		}
		took += time.Since(start)
	}
	start = time.Now()
	_, err = rcv.File()
	took += time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return took
}
