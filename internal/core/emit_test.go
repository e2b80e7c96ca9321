package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/proto"
)

// emitFunc is the tests' fresh-buffer RoundEmitter: every packet in a new
// allocation, handed to the function.
type emitFunc func(layer int, pkt []byte) error

func (emitFunc) PacketBuf(size int) []byte { return make([]byte, 0, size) }

func (f emitFunc) Emit(layer int, pkt []byte) error { return f(layer, pkt) }

// toReceiver emits into r: each packet is parsed and its index and payload
// handed to Handle, the decode step behind the client engine's intake.
func toReceiver(r *Receiver) emitFunc {
	return func(_ int, pkt []byte) error {
		h, payload, err := proto.ParsePacket(pkt)
		if err == nil {
			_, err = r.Handle(int(h.Index), payload)
		}
		return err
	}
}

// poolEmitter is a minimal pooled RoundEmitter: one reused buffer per
// packet slot, so any divergence from fresh-allocation emission (buffer
// aliasing, stale bytes) surfaces as a packet mismatch.
type poolEmitter struct {
	free [][]byte
	out  []capturedPkt
}

type capturedPkt struct {
	layer int
	data  []byte
}

func (p *poolEmitter) PacketBuf(size int) []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		if cap(b) >= size {
			return b[:0]
		}
	}
	return make([]byte, 0, size)
}

func (p *poolEmitter) Emit(layer int, pkt []byte) error {
	// Copy out (the pooled buffer is recycled), then recycle.
	p.out = append(p.out, capturedPkt{layer, append([]byte(nil), pkt...)})
	p.free = append(p.free, pkt[:0])
	return nil
}

// TestNextRoundToMatchesNextRound: for every session shape — layered,
// single-layer, and rateless — emission through a pooled RoundEmitter must
// be bit-identical, packet for packet and layer for layer, to emission
// through a fresh-buffer one: the emitter only decides where the bytes live.
func TestNextRoundToMatchesNextRound(t *testing.T) {
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(9)).Read(data)
	shapes := []struct {
		name string
		mod  func(*Config)
	}{
		{"layered-tornado", func(c *Config) {}},
		{"single-layer", func(c *Config) { c.Layers = 1 }},
		{"rateless-lt", func(c *Config) { c.Codec = proto.CodecLT }},
		{"rateless-layered", func(c *Config) { c.Codec = proto.CodecLT; c.Layers = 4 }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SPInterval = 4 // exercise SP and burst flags within the window
			shape.mod(&cfg)
			sess, err := NewSession(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const phase, rounds = 3, 40
			ref := NewCarouselAt(sess, phase)
			var want []capturedPkt
			for r := 0; r < rounds; r++ {
				err := ref.NextRoundTo(emitFunc(func(layer int, pkt []byte) error {
					want = append(want, capturedPkt{layer, pkt})
					return nil
				}))
				if err != nil {
					t.Fatal(err)
				}
			}
			pooled := NewCarouselAt(sess, phase)
			em := &poolEmitter{}
			for r := 0; r < rounds; r++ {
				if err := pooled.NextRoundTo(em); err != nil {
					t.Fatal(err)
				}
			}
			if len(em.out) != len(want) {
				t.Fatalf("pooled path emitted %d packets, want %d", len(em.out), len(want))
			}
			for i := range want {
				if em.out[i].layer != want[i].layer || !bytes.Equal(em.out[i].data, want[i].data) {
					t.Fatalf("packet %d diverges (layer %d vs %d)", i, em.out[i].layer, want[i].layer)
				}
			}
			if pooled.Sent() != ref.Sent() || pooled.Round() != ref.Round() {
				t.Fatalf("carousel counters diverge: sent %d/%d round %d/%d",
					pooled.Sent(), ref.Sent(), pooled.Round(), ref.Round())
			}
		})
	}
}

// TestAppendPacketMatchesPacket: AppendPacket into a reused buffer behind a
// non-empty prefix must leave the prefix alone and append the same bytes as
// into a fresh buffer, WireLen of them.
func TestAppendPacketMatchesPacket(t *testing.T) {
	cfg := DefaultConfig()
	sess, err := NewSession(bytes.Repeat([]byte{7}, 9_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	buf := make([]byte, 0, len(prefix)+sess.WireLen())
	for idx := 0; idx < sess.Codec().N(); idx += 5 {
		want := sess.AppendPacket(nil, idx, 2, uint32(idx+1), proto.FlagSP)
		got := sess.AppendPacket(append(buf[:0], prefix...), idx, 2, uint32(idx+1), proto.FlagSP)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendPacket(%d) into a reused buffer diverges from a fresh one", idx)
		}
		if len(want) != sess.WireLen() {
			t.Fatalf("packet length %d, WireLen %d", len(want), sess.WireLen())
		}
	}
}
