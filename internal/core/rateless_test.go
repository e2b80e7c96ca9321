package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

func ltConfig(layers int) Config {
	cfg := DefaultConfig()
	cfg.Codec = proto.CodecLT
	cfg.Layers = layers
	cfg.PacketLen = 64
	cfg.Stretch = 0 // ignored for rateless codecs
	return cfg
}

func TestRatelessSessionProperties(t *testing.T) {
	data := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(data)
	sess, err := NewSession(data, ltConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Rateless() || !sess.Lazy() {
		t.Fatalf("Rateless=%v Lazy=%v, want true/true", sess.Rateless(), sess.Lazy())
	}
	info := sess.Info()
	if info.N != code.UnboundedN {
		t.Fatalf("info.N = %d, want the unbounded sentinel", info.N)
	}
}

// TestRatelessCarouselMonotone: a rateless carousel must stream fresh,
// strictly increasing indices — 2^(g-1) per round split across layers with
// the schedule's slot counts — and a phase-shifted carousel must start
// exactly phase*2^(g-1) indices downstream.
func TestRatelessCarouselMonotone(t *testing.T) {
	data := make([]byte, 3000)
	rand.New(rand.NewSource(2)).Read(data)
	sess, err := NewSession(data, ltConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	perRound := 1 << 3 // 2^(g-1) for g=4
	collect := func(car *Carousel, rounds int) []uint32 {
		var idxs []uint32
		perLayer := map[int]int{}
		for r := 0; r < rounds; r++ {
			err := car.NextRoundTo(emitFunc(func(layer int, pkt []byte) error {
				h, _, err := proto.ParseHeader(pkt)
				if err != nil {
					return err
				}
				idxs = append(idxs, h.Index)
				perLayer[layer]++
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
		}
		// Schedule slot counts: 1, 1, 2, 4 per round for g=4.
		want := map[int]int{0: rounds, 1: rounds, 2: 2 * rounds, 3: 4 * rounds}
		for l, n := range want {
			if perLayer[l] != n {
				t.Fatalf("layer %d emitted %d packets over %d rounds, want %d", l, perLayer[l], rounds, n)
			}
		}
		return idxs
	}
	idxs := collect(NewCarouselAt(sess, 0), 16)
	if len(idxs) != 16*perRound {
		t.Fatalf("%d indices over 16 rounds, want %d", len(idxs), 16*perRound)
	}
	for i, idx := range idxs {
		if int(idx) != i {
			t.Fatalf("emission %d carries index %d; the stream must be monotone from 0", i, idx)
		}
	}
	shifted := collect(NewCarouselAt(sess, 1000), 4)
	if int(shifted[0]) != 1000*perRound {
		t.Fatalf("phase-1000 carousel starts at index %d, want %d", shifted[0], 1000*perRound)
	}
}

// TestRatelessEndToEnd drives the wire path — session info marshalled and
// re-parsed as a client would learn it, carousel packets parsed and handed
// to Receiver.Handle — at both layer counts.
func TestRatelessEndToEnd(t *testing.T) {
	for _, layers := range []int{1, 4} {
		data := make([]byte, 20_000)
		rand.New(rand.NewSource(int64(layers))).Read(data)
		sess, err := NewSession(data, ltConfig(layers))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := proto.ParseSessionInfo(sess.Info().Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := NewReceiver(parsed)
		if err != nil {
			t.Fatal(err)
		}
		car := NewCarouselAt(sess, 12345) // arbitrary uncoordinated start
		for rounds := 0; !rcv.Done(); rounds++ {
			if rounds > 8*sess.Codec().K() {
				t.Fatalf("layers=%d: no decode after %d rounds", layers, rounds)
			}
			err := car.NextRoundTo(toReceiver(rcv))
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := rcv.File()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("layers=%d: reconstructed file differs", layers)
		}
		total, distinct, k := rcv.Stats()
		t.Logf("layers=%d k=%d total=%d distinct=%d overhead=%.3f",
			layers, k, total, distinct, float64(distinct)/float64(k))
	}
}
