package core

import (
	"math/rand"
	"testing"

	"repro/internal/proto"
)

// TestNewReceiverRejectsBadCounts: a descriptor is untrusted input. For
// every codec id, K = 0 (which used to panic with an integer divide by
// zero), an N that is not a modest whole stretch of K, and geometry the
// advertised file cannot justify must come back as errors — before any
// codec is built, so a 107-byte datagram cannot make a client allocate
// gigabytes.
func TestNewReceiverRejectsBadCounts(t *testing.T) {
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		var good proto.SessionInfo
		// A file below one packet (k = 1), one ending mid-packet, and one
		// filling whole packets must all still be accepted.
		for _, size := range []int{10, 20000, 64 * 300} {
			cfg := DefaultConfig()
			cfg.Codec = id
			cfg.PacketLen = 64
			sess, err := NewSession(randData(rand.New(rand.NewSource(13)), size), cfg)
			if err != nil {
				t.Fatalf("codec %d: NewSession: %v", id, err)
			}
			good = sess.Info()
			if _, err := NewReceiver(good); err != nil {
				t.Fatalf("codec %d, %d bytes: valid descriptor rejected: %v", id, size, err)
			}
		}
		for _, tc := range []struct {
			name  string
			early bool // rejected before a codec is built
			edit  func(*proto.SessionInfo)
		}{
			{"k=0", true, func(i *proto.SessionInfo) { i.K = 0 }},
			{"k=0,n=0", true, func(i *proto.SessionInfo) { i.K, i.N = 0, 0 }},
			{"n<k", true, func(i *proto.SessionInfo) { i.N = i.K - 1 }},
			{"n=0", true, func(i *proto.SessionInfo) { i.N = 0 }},
			{"packetLen=0", true, func(i *proto.SessionInfo) { i.PacketLen = 0 }},
			{"layers=0", true, func(i *proto.SessionInfo) { i.Layers = 0 }},
			{"layers=17", true, func(i *proto.SessionInfo) { i.Layers = 17 }},
			{"file>k*pl", true, func(i *proto.SessionInfo) { i.FileLen = uint64(i.K)*uint64(i.PacketLen) + 1 }},
			{"file=2^64-1", true, func(i *proto.SessionInfo) { i.FileLen = 1<<64 - 1 }},
			{"k>file", true, func(i *proto.SessionInfo) { i.K, i.N = 2*i.K, 2*i.N }},
			{"hostile", true, func(i *proto.SessionInfo) {
				i.K, i.N, i.PacketLen, i.FileLen = 1<<24, 1<<31-1, 1024, 10
			}},
			{"stretch", true, func(i *proto.SessionInfo) {
				i.K, i.N, i.PacketLen, i.FileLen = 100, 20_000_000, 1024, 102_400
			}},
		} {
			info := good
			tc.edit(&info)
			var rcv *Receiver
			var err error
			allocs := testing.AllocsPerRun(1, func() { rcv, err = NewReceiver(info) })
			if err == nil {
				t.Errorf("codec %d, %s: accepted (receiver %v)", id, tc.name, rcv != nil)
			} else if tc.early && allocs > 16 {
				t.Errorf("codec %d, %s: %v allocations before rejecting: a codec was built", id, tc.name, allocs)
			}
		}
	}
}
