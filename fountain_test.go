package fountain

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/tornado"
)

// TestPublicAPIQuickstart exercises the documented public surface end to
// end: session, manual service over a lossy bus, client engine, efficiency
// accounting.
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
	bus := NewBus(1)
	svc := NewService(bus, ServiceConfig{})
	defer svc.Close()
	car, err := svc.AddManual(sess, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewClient(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	link := bus.NewClient(0, nil, func(_ int, pkt []byte) {
		if rng.Float64() < 0.3 {
			return
		}
		if _, err := eng.HandlePacket(pkt); err != nil {
			t.Error(err)
		}
	})
	defer link.Close()
	for !eng.Done() {
		if err := svc.EmitRound(car); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("file corrupted")
	}
	if eta, etaC, etaD := eng.Efficiency(); eta <= 0 || eta > 1 || etaC > 1 || etaD != 1 {
		t.Fatalf("implausible efficiencies: %v %v %v", eta, etaC, etaD)
	}
}

// TestEncodeRefusesRateless: LT and raptor have no whole encoding, so
// Encode (code.EncodeAll) refuses them up front instead of sizing one by
// their unbounded N; they report RatelessN and IsRateless.
func TestEncodeRefusesRateless(t *testing.T) {
	const k, pl = 10, 16
	lt, err := NewLT(k, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	raptor, err := NewRaptor(k, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
	}
	for _, c := range []Codec{lt, raptor} {
		if c.N() != RatelessN || !IsRateless(c) {
			t.Fatalf("%s: N() = %d, IsRateless %v", c.Name(), c.N(), IsRateless(c))
		}
		if enc, err := Encode(c, src); !errors.Is(err, code.ErrUnbounded) || enc != nil {
			t.Fatalf("%s: Encode = %d packets, %v; want code.ErrUnbounded", c.Name(), len(enc), err)
		}
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
		enc, err := Encode(c, src)
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
	svc := NewService(udp, ServiceConfig{})
	defer svc.Close()
	car, err := svc.AddManual(sess, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
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
			svc.EmitRound(car)
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
// encoding at staggered phases, one client socket + multi-source engine
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

	cli, err := NewUDPClientSession(addrs, info.Session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	eng, err := NewMultiSourceClient(info, len(addrs), 0, func(l int) { cli.SetLevel(l) })
	if err != nil {
		t.Fatal(err)
	}
	var rb RecvBatch
	defer rb.Free()
	deadline := time.Now().Add(30 * time.Second)
	for !eng.Done() {
		if time.Now().After(deadline) {
			t.Fatal("multi-source download never completed")
		}
		if _, err := cli.RecvBatch(&rb, time.Second); err != nil {
			continue
		}
		for i, pkt := range rb.Packets() {
			if done, err := eng.HandlePacketFrom(rb.Source(i), pkt); err != nil {
				t.Fatal(err)
			} else if done {
				break
			}
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
