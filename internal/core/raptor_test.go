package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

func raptorConfig(layers int) Config {
	cfg := DefaultConfig()
	cfg.Codec = proto.CodecRaptor
	cfg.Layers = layers
	cfg.PacketLen = 64
	cfg.Stretch = 0 // ignored for rateless codecs
	return cfg
}

// TestRaptorSessionProperties: a raptor session is rateless and lazy like
// an LT one, and its descriptor survives the wire byte-exactly.
func TestRaptorSessionProperties(t *testing.T) {
	data := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(data)
	sess, err := NewSession(data, raptorConfig(4))
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
	parsed, err := proto.ParseSessionInfo(info.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if parsed != info {
		t.Fatalf("descriptor changed across the wire:\n got %+v\nwant %+v", parsed, info)
	}
}

// TestSystematicRaptorSenderBuildsNoGraph: a raptor session that emits only
// the systematic prefix computes no intermediates, so it never builds the
// precode graph (≈ 0.55 MB here) or the intermediates' L slice headers
// (≈ 0.4 MB). What it allocates is the session — chiefly the k packet
// headers code.Split makes over the file — and nothing per packet.
func TestSystematicRaptorSenderBuildsNoGraph(t *testing.T) {
	const k, pl = 16384, 64
	data := make([]byte, k*pl)
	rand.New(rand.NewSource(3)).Read(data)
	cfg := raptorConfig(1)
	// A collection first: the process's first one starts the runtime's
	// mark workers, whose allocations are not the session's.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := NewSessionCached(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, sess.WireLen())
	for i := range k {
		buf = sess.AppendPacket(buf[:0], i, 0, uint32(i), 0)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(k*24+64<<10); got > limit {
		t.Fatalf("a sender of the %d systematic packets allocated %d B, want ≤ %d (packet headers %d + 64 KiB)", k, got, limit, k*24)
	}
}

// TestRaptorSystematicZeroLoss: a carousel started at stream position 0
// over a lossless channel delivers the source packets verbatim — the
// receiver completes at exactly k packets with zero symbol-release XOR
// work and a bit-identical file.
func TestRaptorSystematicZeroLoss(t *testing.T) {
	data := make([]byte, 20_000)
	rand.New(rand.NewSource(7)).Read(data)
	sess, err := NewSession(data, raptorConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(sess.Info())
	if err != nil {
		t.Fatal(err)
	}
	car := NewCarouselAt(sess, 0)
	for !rcv.Done() {
		if err := car.NextRoundTo(toReceiver(rcv)); err != nil {
			t.Fatal(err)
		}
	}
	total, distinct, k := rcv.Stats()
	if total != k || distinct != k {
		t.Fatalf("lossless systematic intake took total=%d distinct=%d, want exactly k=%d", total, distinct, k)
	}
	if rel := rcv.Released(); rel != 0 {
		t.Fatalf("lossless systematic decode performed %d symbol releases, want 0", rel)
	}
	got, err := rcv.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstructed file differs")
	}
}

// TestRaptorEndToEnd drives the wire path — descriptor marshalled and
// re-parsed as a client would learn it, carousel packets parsed and handed
// to Receiver.Handle — from an uncoordinated (repair-region) stream start,
// at both layer counts.
func TestRaptorEndToEnd(t *testing.T) {
	for _, layers := range []int{1, 4} {
		data := make([]byte, 20_000)
		rand.New(rand.NewSource(int64(layers))).Read(data)
		sess, err := NewSession(data, raptorConfig(layers))
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
		car := NewCarouselAt(sess, 123456) // arbitrary uncoordinated start
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
		t.Logf("layers=%d k=%d total=%d distinct=%d overhead=%.3f released=%d",
			layers, k, total, distinct, float64(distinct)/float64(k), rcv.Released())
	}
}
