package fountain

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/tornado"
)

// TestPublicAPIQuickstart exercises the documented public surface end to
// end: codec construction, session, receiver, efficiency accounting.
func TestPublicAPIQuickstart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	file := make([]byte, 100<<10)
	rng.Read(file)
	cfg := DefaultConfig()
	cfg.Layers = 1
	sess, err := NewSession(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(sess.Info())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; !rcv.Done(); round++ {
		for _, idx := range sess.CarouselIndices(0, round) {
			if rng.Float64() < 0.3 {
				continue
			}
			rcv.HandleRaw(sess.Packet(idx, 0, uint32(round), 0))
		}
	}
	got, err := rcv.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("file corrupted")
	}
}

// TestPublicCodecs constructs each public codec and round-trips it.
func TestPublicCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k, pl := 32, 32
	mks := map[string]func() (Codec, error){
		"tornado-a":   func() (Codec, error) { return NewTornado(TornadoA(), k, 2*k, pl, 7) },
		"tornado-b":   func() (Codec, error) { return NewTornado(TornadoB(), k, 2*k, pl, 7) },
		"vandermonde": func() (Codec, error) { return NewVandermonde(k, 2*k, pl) },
		"cauchy":      func() (Codec, error) { return NewCauchy(k, 2*k, pl) },
		"interleaved": func() (Codec, error) { return NewInterleaved(k, 8, 2, pl) },
	}
	for name, mk := range mks {
		c, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := make([][]byte, c.K())
		for i := range src {
			src[i] = make([]byte, pl)
			rng.Read(src[i])
		}
		enc, err := c.Encode(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := c.NewDecoder()
		for _, i := range rng.Perm(c.N()) {
			if done, _ := d.Add(i, enc[i]); done {
				break
			}
		}
		got, err := d.Source()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range src {
			if !bytes.Equal(got[i*pl:(i+1)*pl], src[i]) {
				t.Fatalf("%s: packet %d differs", name, i)
			}
		}
	}
}

// TestNewTornadoWholeStretch: the public constructor refuses an n that is
// not a whole stretch factor in 2..16, as a session descriptor does.
func TestNewTornadoWholeStretch(t *testing.T) {
	const k = 32
	for _, n := range []int{2*k + 1, k, 17 * k} {
		for _, p := range []tornado.Params{TornadoA(), TornadoB()} {
			if _, err := NewTornado(p, k, n, 16, 1); err == nil {
				t.Errorf("%s: n=%d for k=%d accepted", p.Variant, n, k)
			}
		}
	}
	if _, err := NewTornado(TornadoB(), k, 16*k, 16, 1); err != nil {
		t.Fatalf("stretch 16 refused: %v", err)
	}
}

// TestUDPPrototypeEndToEnd runs the real-socket prototype on loopback.
func TestUDPPrototypeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	file := make([]byte, 64<<10)
	rng.Read(file)
	cfg := DefaultConfig()
	cfg.Layers = 2
	sess, err := NewSession(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := NewUDPServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	cli, err := NewUDPClient(udp.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	eng, err := NewClient(sess.Info(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	car := NewCarousel(sess)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var rb RecvBatch
		defer rb.Free()
		for !eng.Done() {
			if _, err := cli.RecvBatch(&rb, 200*time.Millisecond); err != nil {
				continue
			}
			eng.HandleBatchFrom(0, rb.Packets())
		}
	}()
	deadline := 20000
	for i := 0; i < deadline; i++ {
		select {
		case <-done:
			i = deadline
		default:
			car.NextRound(func(layer int, pkt []byte) error { return udp.SendBatch(layer, [][]byte{pkt}) })
		}
	}
	<-done
	got, err := eng.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("UDP download corrupted")
	}
}

// TestMultiSourceUDPEndToEnd runs the §8 mirrored download on loopback
// through the public API: two UDP fountain services carrying the same
// encoding at staggered phases, one MultiClient + multi-source engine
// harvesting both, per-source accounting checked at the end.
func TestMultiSourceUDPEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	file := make([]byte, 96<<10)
	rng.Read(file)
	cfg := DefaultConfig()
	cfg.Layers = 1

	var addrs []*net.UDPAddr
	var info SessionInfo
	for i := 0; i < 2; i++ {
		sess, err := NewSession(file, cfg)
		if err != nil {
			t.Fatal(err)
		}
		udp, err := NewUDPServer("127.0.0.1:0", cfg.Layers)
		if err != nil {
			t.Fatal(err)
		}
		defer udp.Close()
		svc := NewService(udp, ServiceConfig{})
		defer svc.Close()
		phase := sess.Codec().N() * i / 2
		if err := svc.AddPhased(sess, 4000, phase); err != nil {
			t.Fatal(err)
		}
		got, ok := svc.Lookup(cfg.Session)
		if !ok || got.Phase != uint32(phase) {
			t.Fatalf("mirror %d advertises %+v", i, got)
		}
		addrs = append(addrs, udp.Addr())
		if i == 0 {
			info = got
		}
	}

	mc, err := NewMultiClient(addrs, info.Session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	eng, err := NewMultiSourceClient(info, len(addrs), 0, func(l int) { mc.SetLevel(l) })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !eng.Done() {
		if time.Now().After(deadline) {
			t.Fatal("multi-source download never completed")
		}
		src, pkts, err := mc.RecvBatchFrom(time.Second)
		if err != nil {
			continue
		}
		if _, err := eng.HandleBatchFrom(src, pkts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("multi-source download corrupted")
	}
	// Both mirrors must have contributed, and the per-source split must
	// cover everything the engine counted.
	total := 0
	for _, src := range eng.Sources() {
		st := eng.SourceStats(src)
		if st.Received == 0 {
			t.Fatalf("mirror %d contributed nothing", src)
		}
		total += st.Received
	}
	if total == 0 || len(eng.Sources()) != 2 {
		t.Fatalf("source accounting wrong: %v packets over %v", total, eng.Sources())
	}
}
