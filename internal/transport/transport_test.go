package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/proto"
)

func TestBusDeliveryAndLevels(t *testing.T) {
	b := NewBus(4)
	var got []int
	c := b.NewClient(1, nil, func(layer int, pkt []byte) {
		got = append(got, layer)
	})
	for l := 0; l < 4; l++ {
		b.Send(l, []byte{byte(l)})
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("level-1 client got layers %v", got)
	}
	c.SetLevel(3)
	got = nil
	b.Send(3, []byte{3})
	if len(got) != 1 {
		t.Fatal("level change not applied")
	}
	c.Close()
	got = nil
	b.Send(0, []byte{0})
	if len(got) != 0 {
		t.Fatal("closed client still receives")
	}
}

func TestBusLossInjection(t *testing.T) {
	b := NewBus(1)
	rng := netsim.NewRNG(1)
	n := 0
	b.NewClient(0, &netsim.Bernoulli{P: 0.5, Rng: rng}, func(int, []byte) { n++ })
	for i := 0; i < 10000; i++ {
		b.Send(0, []byte{1})
	}
	if n < 4500 || n > 5500 {
		t.Fatalf("delivered %d of 10000 at p=0.5", n)
	}
}

func TestBusBadLayer(t *testing.T) {
	b := NewBus(2)
	if err := b.Send(2, nil); err == nil {
		t.Fatal("bad layer accepted")
	}
}

func TestUDPSubscribeAndDeliver(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewUDPClient(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Bound to no one interface, so the same client reaches a server off
	// the loopback; this one it reaches over it.
	if ip := cli.conn.LocalAddr().(*net.UDPAddr).IP; !ip.IsUnspecified() {
		t.Fatalf("client socket bound to %v, want the unspecified address", ip)
	}
	// Wait for membership to register.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers(0) == 0 || srv.Subscribers(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriptions never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Subscribers(2) != 0 {
		t.Fatal("unexpected layer-2 subscription")
	}
	payload := []byte("hello fountain")
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		var rb RecvBatch
		defer rb.Free()
		if _, err := cli.RecvBatch(&rb, 2*time.Second); err == nil {
			got = append(got, rb.Packets()[0]...)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := srv.SendBatch(1, [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestUDPUnsubscribe(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewUDPClient(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cli.SetLevel(0)
	for srv.Subscribers(1) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("never unsubscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Subscribers(0) != 1 {
		t.Fatal("layer 0 dropped too")
	}
}

func TestControlRoundTrip(t *testing.T) {
	reply := []byte{9, 9, 9}
	addr, stop, err := ServeControlFunc("127.0.0.1:0", func(b []byte) []byte {
		if len(b) == 1 && b[0] == 7 {
			return reply
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	got, err := RequestSessionInfo(addr, []byte{7}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("got %v", got)
	}
}

// TestUDPSessionMux: one socket, two sessions, session-specific clients —
// each client must receive only its session's packets, while a wildcard
// client sees both.
func TestUDPSessionMux(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mkPkt := func(session uint16, payload byte) []byte {
		h := proto.Header{Index: 1, Serial: 1, Group: 0, Session: session}
		return append(h.Marshal(nil), payload)
	}
	cliA, err := NewUDPClientSession(srv.Addr(), 0xAAAA, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	cliB, err := NewUDPClientSession(srv.Addr(), 0xBBBB, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()
	cliAny, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cliAny.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionSubscribers(0xAAAA, 0) == 0 || srv.SessionSubscribers(0xBBBB, 0) == 0 ||
		srv.SessionSubscribers(SessionAny, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriptions never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The 7-byte SUB is the one wire form: a 5- or 6-byte one (once the
	// wildcard's short form) subscribes nobody. The valid layer-1 join sent
	// after them from the same socket marks that they were read.
	raw, err := net.DialUDP("udp4", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, sub := range [][]byte{{'S', 'U', 'B', 1, 0}, {'S', 'U', 'B', 1, 0, 0xFF}, {'S', 'U', 'B', 1, 1, 0xCC, 0xCC}} {
		if _, err := raw.Write(sub); err != nil {
			t.Fatal(err)
		}
	}
	waitSubs(t, func() bool { return srv.SessionSubscribers(0xCCCC, 1) == 1 }, "marker subscription")
	if got := srv.Subscribers(0); got != 3 {
		t.Fatalf("layer-0 subscriber union = %d, want 3", got)
	}
	for i := 0; i < 5; i++ {
		if err := srv.SendBatch(0, [][]byte{mkPkt(0xAAAA, 'a')}); err != nil {
			t.Fatal(err)
		}
		if err := srv.SendBatch(0, [][]byte{mkPkt(0xBBBB, 'b')}); err != nil {
			t.Fatal(err)
		}
	}
	recvSessions := func(cli *UDPClient, n int) map[uint16]int {
		got := map[uint16]int{}
		var rb RecvBatch
		defer rb.Free()
		for seen := 0; seen < n; seen += rb.Len() {
			if _, err := cli.RecvBatch(&rb, time.Second); err != nil {
				break
			}
			for _, pkt := range rb.Packets() {
				h, _, err := proto.ParseHeader(pkt)
				if err != nil {
					t.Fatal(err)
				}
				got[h.Session]++
			}
		}
		return got
	}
	gotA := recvSessions(cliA, 5)
	if gotA[0xAAAA] == 0 || gotA[0xBBBB] != 0 {
		t.Fatalf("session-A client saw %v", gotA)
	}
	gotB := recvSessions(cliB, 5)
	if gotB[0xBBBB] == 0 || gotB[0xAAAA] != 0 {
		t.Fatalf("session-B client saw %v", gotB)
	}
	gotAny := recvSessions(cliAny, 10)
	if gotAny[0xAAAA] == 0 || gotAny[0xBBBB] == 0 {
		t.Fatalf("wildcard client saw %v", gotAny)
	}
}

// TestUDPServerCloseJoinsLoop: Close must not return before the membership
// goroutine has exited (teardown race / goroutine leak under -race). The
// concurrent subscriber traffic makes a non-joined loop's socket reads
// visible to the race detector.
func TestUDPServerCloseJoinsLoop(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv, err := NewUDPServer("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewUDPClient(srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 50; j++ {
				cli.SetLevel(j % 2)
			}
		}()
		time.Sleep(time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		select {
		case <-srv.loopDone:
		default:
			t.Fatal("Close returned before membershipLoop exited")
		}
		<-done
		cli.Close()
		if err := cli.SetLevel(1); err == nil {
			t.Fatal("SetLevel succeeded on closed client")
		}
	}
}

// TestUDPServerCloseLeaksNoGoroutine: a server closed while subscribers
// still join, leave and are being sent to takes its membership goroutine
// with it, every time.
func TestUDPServerCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		srv, err := NewUDPServer("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewUDPClient(srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		waitSubs(t, func() bool { return srv.SubscriberTotal() == 1 }, "subscription")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cli.SetLevel(j % 2)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				srv.SendBatch(j%2, [][]byte{[]byte("pkt")}) // errors once the socket is gone
			}
		}()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		cli.Close()
	}
	waitGoroutines(t, base)
}

// TestServeControlFuncStopJoins: stop must wait for the control read loop.
func TestServeControlFuncStopJoins(t *testing.T) {
	calls := 0
	addr, stop, err := ServeControlFunc("127.0.0.1:0", func(req []byte) []byte {
		calls++
		if len(req) == 1 && req[0] == 7 {
			return []byte{8}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RequestSessionInfo(addr, []byte{7}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("reply %v", got)
	}
	stop()
	stop() // idempotent
}

// TestPumpOrderingDeterministic: sources fire in virtual-time order with
// registration-order tie-breaking, so the interleaving is reproducible.
func TestPumpOrderingDeterministic(t *testing.T) {
	run := func() []int {
		p := NewPump()
		var order []int
		p.Add(0, 1.0, func() error { order = append(order, 0); return nil })
		p.Add(0, 1.0, func() error { order = append(order, 1); return nil })
		p.Add(0, 0.5, func() error { order = append(order, 2); return nil })
		if _, err := p.Run(12, nil); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("ran %d steps, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleavings diverge at %d: %v vs %v", i, a, b)
		}
	}
	// The double-rate source must fire twice as often as each unit-rate one.
	count := map[int]int{}
	for _, s := range a {
		count[s]++
	}
	if count[2] != count[0]+count[1] {
		t.Fatalf("rate weighting wrong: %v", count)
	}
}

// TestPumpStopsOnDoneAndError: done() halts the pump between steps; a step
// error propagates with the step counted.
func TestPumpStopsOnDoneAndError(t *testing.T) {
	p := NewPump()
	n := 0
	p.Add(0, 1, func() error { n++; return nil })
	steps, err := p.Run(100, func() bool { return n >= 5 })
	if err != nil || steps != 5 || n != 5 {
		t.Fatalf("steps=%d n=%d err=%v", steps, n, err)
	}
	boom := errForTest{}
	p2 := NewPump()
	p2.Add(0, 1, func() error { return boom })
	if steps, err := p2.Run(100, nil); err != boom || steps != 1 {
		t.Fatalf("steps=%d err=%v", steps, err)
	}
	if steps, err := NewPump().Run(100, nil); steps != 0 || err != nil {
		t.Fatalf("empty pump ran %d steps, err=%v", steps, err)
	}
}

type errForTest struct{}

func (errForTest) Error() string { return "boom" }

// TestBusPerLayerLoss: a per-layer override must shadow the client-wide
// process on its layer only.
func TestBusPerLayerLoss(t *testing.T) {
	b := NewBus(2)
	got := map[int]int{}
	c := b.NewClient(1, nil, func(layer int, pkt []byte) { got[layer]++ })
	defer c.Close()
	c.SetLayerLoss(1, &alwaysLose{})
	for i := 0; i < 50; i++ {
		b.Send(0, []byte{0})
		b.Send(1, []byte{1})
	}
	if got[0] != 50 || got[1] != 0 {
		t.Fatalf("deliveries %v, want layer 0 = 50, layer 1 = 0", got)
	}
	c.SetLayerLoss(1, nil) // restore default (lossless)
	b.Send(1, []byte{1})
	if got[1] != 1 {
		t.Fatal("clearing the override did not restore delivery")
	}
}

type alwaysLose struct{}

func (alwaysLose) Lose() bool { return true }

// TestMultiClientHarvestsAllSources: a MultiClient joined to two UDP
// servers must deliver both servers' packets tagged with the right source
// index, and SetLevel must fan out to every source.
func TestMultiClientHarvestsAllSources(t *testing.T) {
	const session = 0xCAFE
	srvs := make([]*UDPServer, 2)
	for i := range srvs {
		s, err := NewUDPServer("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs[i] = s
	}
	mc, err := NewMultiClient([]*net.UDPAddr{srvs[0].Addr(), srvs[1].Addr()}, session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if mc.Sources() != 2 {
		t.Fatalf("sources = %d", mc.Sources())
	}
	deadline := time.Now().Add(2 * time.Second)
	for srvs[0].SessionSubscribers(session, 0) == 0 || srvs[1].SessionSubscribers(session, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriptions never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mkPkt := func(src byte) []byte {
		h := proto.Header{Index: uint32(src), Serial: 1, Session: session}
		return append(h.Marshal(nil), src)
	}
	for i := 0; i < 5; i++ {
		if err := srvs[0].SendBatch(0, [][]byte{mkPkt(0)}); err != nil {
			t.Fatal(err)
		}
		if err := srvs[1].SendBatch(0, [][]byte{mkPkt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	bySource := map[int]int{}
	for len(bySource) < 2 {
		src, pkts, err := mc.RecvBatchFrom(2 * time.Second)
		if err != nil {
			t.Fatalf("%v with sources %v", err, bySource)
		}
		for _, pkt := range pkts {
			h, payload, err := proto.ParseHeader(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if int(h.Index) != src || int(payload[0]) != src {
				t.Fatalf("packet from server %d delivered as source %d", h.Index, src)
			}
			bySource[src]++
		}
	}
	// Level fan-out: raising to 1 must join layer 1 on both servers.
	if err := mc.SetLevel(1); err != nil {
		t.Fatal(err)
	}
	if mc.Level() != 1 {
		t.Fatalf("level = %d", mc.Level())
	}
	deadline = time.Now().Add(2 * time.Second) // fresh budget: receives above may have eaten the first
	for srvs[0].SessionSubscribers(session, 1) == 0 || srvs[1].SessionSubscribers(session, 1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("layer-1 joins never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := mc.Close(); err != nil { // idempotent double close
		t.Fatal(err)
	}
	if _, _, err := mc.RecvBatchFrom(50 * time.Millisecond); err != ErrClosed {
		t.Fatalf("RecvBatchFrom after Close: %v, want ErrClosed", err)
	}
}
