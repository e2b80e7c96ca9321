package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/transport"
)

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func sessionConfig(codec uint8, id uint16, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Codec = codec
	cfg.Layers = 4
	cfg.SPInterval = 8
	cfg.Seed = seed
	cfg.Session = id
	return cfg
}

// TestServiceSoak is the multi-session smoke the CI runs under -race: one
// service, one muxed UDP socket, three sessions of different codecs (one
// lazily encoded under a tight shared cache), and eight concurrent clients
// spread across the sessions. Every client must reconstruct its file, and
// the shared encoding cache must stay bounded.
func TestServiceSoak(t *testing.T) {
	const cacheBytes = 32 << 10
	udp, err := transport.NewUDPServer("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	svc := New(udp, Config{CacheBytes: cacheBytes, BaseRate: 2000})
	defer svc.Close()

	files := map[uint16][]byte{}
	type add struct {
		codec uint8
		id    uint16
		size  int
	}
	adds := []add{
		{proto.CodecCauchy, 0x0001, 45_000},      // lazy
		{proto.CodecTornadoA, 0x0002, 30_000},    // eager fallback
		{proto.CodecVandermonde, 0x0003, 25_000}, // lazy
	}
	for _, a := range adds {
		data := randBytes(int64(a.id), a.size)
		files[a.id] = data
		if _, err := svc.AddData(data, sessionConfig(a.codec, a.id, 100+int64(a.id)), 0); err != nil {
			t.Fatal(err)
		}
	}

	ctrl, stopCtrl, err := transport.ServeControlFunc("127.0.0.1:0", svc.HandleControl)
	if err != nil {
		t.Fatal(err)
	}
	defer stopCtrl()

	reply, err := transport.RequestSessionInfo(ctrl, proto.AppendCatalogRequest(nil), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := proto.ParseCatalog(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != len(adds) {
		t.Fatalf("catalog has %d sessions, want %d", len(catalog), len(adds))
	}

	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		info := catalog[ci%len(catalog)]
		wg.Add(1)
		go func(ci int, info proto.SessionInfo) {
			defer wg.Done()
			errCh <- fetch(ci, info, udp, files[info.Session])
		}(ci, info)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}

	st := svc.Stats()
	if st.Sessions != len(adds) {
		t.Fatalf("sessions = %d, want %d", st.Sessions, len(adds))
	}
	if st.PacketsSent == 0 || st.BytesSent == 0 {
		t.Fatalf("counters never moved: %+v", st)
	}
	// The lazy sessions' repair regions far exceed the cache budget, which
	// is never overshot.
	if st.CachePeak == 0 {
		t.Fatal("lazy sessions never touched the cache")
	}
	if st.CachePeak > cacheBytes {
		t.Fatalf("cache peak %d blew past cap %d", st.CachePeak, cacheBytes)
	}
}

// fetch downloads one session as a subscribed client and verifies the file.
func fetch(ci int, info proto.SessionInfo, udp *transport.UDPServer, want []byte) error {
	level := int(info.Layers) - 1 // full rate: fastest completion
	uc, err := transport.NewUDPClientSession(udp.Addr(), info.Session, level)
	if err != nil {
		return err
	}
	defer uc.Close()
	eng, err := client.New(info, level, func(l int) { uc.SetLevel(l) })
	if err != nil {
		return err
	}
	var rb transport.RecvBatch
	defer rb.Free()
	deadline := time.Now().Add(30 * time.Second)
	for !eng.Done() {
		if time.Now().After(deadline) {
			return fmt.Errorf("client %d (session %#x): timed out", ci, info.Session)
		}
		if _, err := uc.RecvBatch(&rb, time.Second); err != nil {
			continue
		}
		if _, err := eng.HandleBatchFrom(0, rb.Packets()); err != nil {
			return fmt.Errorf("client %d (session %#x): foreign packet leaked through mux: %v", ci, info.Session, err)
		}
	}
	got, err := eng.File()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("client %d (session %#x): reconstructed file differs", ci, info.Session)
	}
	return nil
}

// recorder is a concurrency-safe Sender capturing every header.
type recorder struct {
	mu   sync.Mutex
	hdrs []proto.Header
}

func (r *recorder) SendBatch(layer int, pkts [][]byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, pkt := range pkts {
		h, _, err := proto.ParseHeader(pkt)
		if err != nil {
			return err
		}
		r.hdrs = append(r.hdrs, h)
	}
	return nil
}

// TestPerSessionSerialsIndependent: each session's carousel must stamp its
// own dense serial space per layer, regardless of how the senders'
// schedules interleave on the shared transport.
func TestPerSessionSerialsIndependent(t *testing.T) {
	rec := &recorder{}
	svc := New(rec, Config{BaseRate: 20000})
	defer svc.Close()
	for id := uint16(1); id <= 2; id++ {
		cfg := sessionConfig(proto.CodecCauchy, id, int64(id))
		if _, err := svc.AddData(randBytes(int64(id), 20_000), cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec.mu.Lock()
		n := len(rec.hdrs)
		rec.mu.Unlock()
		if n >= 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("senders too slow: %d packets", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc.Close() // stop senders before reading the capture
	next := map[[2]uint16]uint32{}
	sessions := map[uint16]bool{}
	for _, h := range rec.hdrs {
		sessions[h.Session] = true
		key := [2]uint16{h.Session, uint16(h.Group)}
		next[key]++
		if h.Serial != next[key] {
			t.Fatalf("session %#x layer %d serial %d, want %d (serial spaces not independent)",
				h.Session, h.Group, h.Serial, next[key])
		}
	}
	if len(sessions) != 2 {
		t.Fatalf("saw sessions %v, want both", sessions)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	rec := &recorder{}
	svc := New(rec, Config{BaseRate: 1000})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecCauchy, 7, 7)
	sess, err := svc.AddData(randBytes(7, 10_000), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddData(randBytes(8, 10_000), cfg, 0); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	badCfg := cfg
	badCfg.Session = transport.SessionAny
	if _, err := svc.AddData(randBytes(9, 10_000), badCfg, 0); err == nil {
		t.Fatal("wildcard session id accepted")
	}
	if _, ok := svc.Lookup(7); !ok {
		t.Fatal("registered session not found")
	}
	if info, ok := svc.Lookup(7); !ok || info.BaseRate != 1000 {
		t.Fatalf("descriptor rate = %d, want service default 1000", info.BaseRate)
	}
	// Force some cache residency, then Remove must reclaim it.
	sess.Payload(sess.Codec().N() - 1)
	if svc.Cache().Used() == 0 {
		t.Fatal("expected cached repair bytes")
	}
	if err := svc.Remove(7); err != nil {
		t.Fatal(err)
	}
	if err := svc.Remove(7); err == nil {
		t.Fatal("double remove succeeded")
	}
	if used := svc.Cache().Used(); used != 0 {
		t.Fatalf("cache still holds %d bytes after Remove", used)
	}
	if _, ok := svc.Lookup(7); ok {
		t.Fatal("removed session still listed")
	}
	if st := svc.Stats(); st.Sessions != 0 {
		t.Fatalf("sessions = %d after remove", st.Sessions)
	}
}

func TestHandleControl(t *testing.T) {
	rec := &recorder{}
	svc := New(rec, Config{})
	defer svc.Close()
	if id, nak := proto.ParseNak(svc.HandleControl(proto.AppendHello(nil))); !nak || id != transport.SessionAny {
		t.Fatal("empty service must NAK a bare hello")
	}
	for id := uint16(3); id >= 1; id-- { // insert descending: catalog must sort
		cfg := sessionConfig(proto.CodecTornadoA, id, int64(id))
		if _, err := svc.AddData(randBytes(int64(id), 5_000), cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := proto.ParseCatalog(svc.HandleControl(proto.AppendCatalogRequest(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 3 || cat[0].Session != 1 || cat[2].Session != 3 {
		t.Fatalf("catalog wrong: %+v", cat)
	}
	info, err := proto.ParseSessionInfo(svc.HandleControl(proto.AppendHelloFor(nil, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Session != 2 {
		t.Fatalf("hello-for-2 answered session %#x", info.Session)
	}
	if id, nak := proto.ParseNak(svc.HandleControl(proto.AppendHelloFor(nil, 99))); !nak || id != 99 {
		t.Fatal("unknown session must be NAKed with its id")
	}
	info, err = proto.ParseSessionInfo(svc.HandleControl(proto.AppendHello(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Session != 1 {
		t.Fatalf("bare hello answered session %#x, want lowest id", info.Session)
	}
	if reply := svc.HandleControl([]byte("garbage")); reply != nil {
		t.Fatal("garbage answered")
	}
}

// TestPhasedAndManualSessions: AddPhased must advertise the phase in the
// control descriptor and start its carousel there; AddManual must register
// without a sender goroutine, count traffic emitted through EmitRound, and
// tear down cleanly via Remove/Close.
func TestPhasedAndManualSessions(t *testing.T) {
	rec := &recorder{}
	svc := New(rec, Config{BaseRate: 500})
	defer svc.Close()

	paced, err := core.NewSession(randBytes(21, 20_000), sessionConfig(proto.CodecCauchy, 0x21, 21))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddPhased(paced, 0, 7); err != nil {
		t.Fatal(err)
	}
	info, ok := svc.Lookup(0x21)
	if !ok || info.Phase != 7 {
		t.Fatalf("phased descriptor = %+v, %v", info, ok)
	}

	manualSess, err := core.NewSession(randBytes(22, 20_000), sessionConfig(proto.CodecCauchy, 0x22, 22))
	if err != nil {
		t.Fatal(err)
	}
	car, err := svc.AddManual(manualSess, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if car.Phase() != 3 || car.Round() != 3 {
		t.Fatalf("manual carousel at %d/%d, want phase 3", car.Phase(), car.Round())
	}
	if info, ok := svc.Lookup(0x22); !ok || info.Phase != 3 {
		t.Fatalf("manual descriptor = %+v, %v", info, ok)
	}
	if _, err := svc.AddManual(manualSess, 0, 0); err == nil {
		t.Fatal("duplicate manual registration accepted")
	}

	// Manual stepping moves the stats.
	before := svc.Stats().PacketsSent
	if err := svc.EmitRound(car); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().PacketsSent; got <= before {
		t.Fatalf("manual round not counted: %d -> %d", before, got)
	}
	// The manual round's packets carry the session id and phase-shifted
	// round position but still serials starting at 1.
	rec.mu.Lock()
	var manualHdrs []proto.Header
	for _, h := range rec.hdrs {
		if h.Session == 0x22 {
			manualHdrs = append(manualHdrs, h)
		}
	}
	rec.mu.Unlock()
	if len(manualHdrs) == 0 || manualHdrs[0].Serial != 1 {
		t.Fatalf("manual emission headers wrong: %+v", manualHdrs)
	}

	// Remove of a manual session must not hang (no goroutine to join).
	doneCh := make(chan error, 1)
	go func() { doneCh <- svc.Remove(0x22) }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Remove of manual session hung")
	}
	if st := svc.Stats(); st.Sessions != 1 {
		t.Fatalf("sessions = %d after manual remove", st.Sessions)
	}
}

// TestCatalogCarriesPhases: a service mirroring the same encoding twice
// under different session ids (as one box backing two mirror identities
// would) must advertise each registration's own phase.
func TestCatalogCarriesPhases(t *testing.T) {
	rec := &recorder{}
	svc := New(rec, Config{BaseRate: 500})
	defer svc.Close()
	for i, phase := range []int{0, 11} {
		sess, err := core.NewSession(randBytes(31, 15_000), sessionConfig(proto.CodecCauchy, uint16(0x31+i), 31))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.AddManual(sess, 0, phase); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := proto.ParseCatalog(svc.HandleControl(proto.AppendCatalogRequest(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 2 || cat[0].Phase != 0 || cat[1].Phase != 11 {
		t.Fatalf("catalog phases wrong: %+v", cat)
	}
}
