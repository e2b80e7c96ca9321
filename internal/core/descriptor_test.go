package core

import (
	"math/rand"
	"testing"

	"repro/internal/proto"
)

// TestNewReceiverRejectsBadCounts: a descriptor is untrusted input. For
// every codec id, K = 0 (which used to panic with an integer divide by
// zero) and N < K must come back as errors.
func TestNewReceiverRejectsBadCounts(t *testing.T) {
	data := randData(rand.New(rand.NewSource(13)), 20000)
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		sess, err := NewSession(data, cfg)
		if err != nil {
			t.Fatalf("codec %d: NewSession: %v", id, err)
		}
		good := sess.Info()
		if _, err := NewReceiver(good); err != nil {
			t.Fatalf("codec %d: valid descriptor rejected: %v", id, err)
		}
		for _, tc := range []struct {
			name string
			edit func(*proto.SessionInfo)
		}{
			{"k=0", func(i *proto.SessionInfo) { i.K = 0 }},
			{"k=0,n=0", func(i *proto.SessionInfo) { i.K, i.N = 0, 0 }},
			{"n<k", func(i *proto.SessionInfo) { i.N = i.K - 1 }},
			{"n=0", func(i *proto.SessionInfo) { i.N = 0 }},
		} {
			info := good
			tc.edit(&info)
			if rcv, err := NewReceiver(info); err == nil {
				t.Errorf("codec %d, %s: accepted (receiver %v)", id, tc.name, rcv != nil)
			}
		}
	}
}
