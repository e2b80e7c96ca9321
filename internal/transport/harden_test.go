package transport

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

func waitSubs(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seenAs returns the address a loopback server sees c at: c's socket is
// bound to the unspecified address, its datagrams leave from the server's.
func seenAs(srv *UDPServer, c *UDPClient) netip.AddrPort {
	return netip.AddrPortFrom(srv.Addr().AddrPort().Addr(), c.conn.LocalAddr().(*net.UDPAddr).AddrPort().Port())
}

// TestUDPEvictsFailingSubscriber: a subscriber whose writes persistently
// fail is evicted after the configured error streak — logged exactly once,
// barred from rejoining during the cooldown, welcome back afterwards — and
// the healthy subscriber next to it never misses a packet.
func TestUDPEvictsFailingSubscriber(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logs atomic.Int32
	srv.SetLimits(UDPLimits{
		EvictAfter:    3,
		EvictCooldown: 150 * time.Millisecond,
		Log:           func(string, ...any) { logs.Add(1) },
	})

	victim, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	healthy, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	waitSubs(t, func() bool { return srv.Subscribers(0) == 2 }, "both subscriptions")

	victimAddr := seenAs(srv, victim)
	realWrite := srv.writeOne
	srv.writeOne = func(pkt []byte, to netip.AddrPort) error {
		if to == victimAddr {
			return errors.New("synthetic broken path")
		}
		return realWrite(pkt, to)
	}

	// Each SendBatch is one delivery attempt per subscriber; three failures
	// trip the eviction.
	var healthyGot sync.WaitGroup
	healthyGot.Add(1)
	go func() {
		defer healthyGot.Done()
		var rb RecvBatch
		defer rb.Free()
		for got := 0; got < 5; got += rb.Len() {
			if _, err := healthy.RecvBatch(&rb, 2*time.Second); err != nil {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 5; i++ {
		srv.SendBatch(0, [][]byte{[]byte("pkt")})
	}
	if got := srv.Hardening().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := srv.Subscribers(0); got != 1 {
		t.Fatalf("subscribers after eviction = %d, want 1", got)
	}
	if got := logs.Load(); got != 1 {
		t.Fatalf("eviction logged %d times, want once", got)
	}
	healthyGot.Wait() // the healthy subscriber kept receiving throughout

	// Rejoin during the cooldown is refused.
	if err := victim.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := srv.Subscribers(0); got != 1 {
		t.Fatalf("evicted subscriber rejoined inside the cooldown (subs = %d)", got)
	}
	if srv.Hardening().RefusedJoins == 0 {
		t.Fatal("penalty-box refusal not counted")
	}

	// After the cooldown the address is welcome again (and writes work:
	// restore the real path).
	srv.writeOne = realWrite
	time.Sleep(150 * time.Millisecond)
	if err := victim.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srv.Subscribers(0) == 2 }, "post-cooldown rejoin")
}

// TestUDPMaxSubscribers: joins beyond the admission cap are refused;
// leaving frees a slot.
func TestUDPMaxSubscribers(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLimits(UDPLimits{MaxSubscribers: 1})

	first, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	waitSubs(t, func() bool { return srv.Subscribers(0) == 1 }, "first subscription")

	second, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	time.Sleep(50 * time.Millisecond)
	if got := srv.Subscribers(0); got != 1 {
		t.Fatalf("cap ignored: %d subscribers", got)
	}
	if srv.Hardening().RefusedJoins == 0 {
		t.Fatal("refused join not counted")
	}

	// An established subscriber is unaffected by the cap (its re-joins
	// keep working), and a departure frees the slot.
	if err := first.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	first.Close()
	waitSubs(t, func() bool { return srv.Subscribers(0) == 0 }, "first departure")
	if err := second.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srv.Subscribers(0) == 1 }, "second admitted after departure")
}

// TestUDPRateCap: a per-subscriber packets-per-second cap truncates what
// one subscriber receives from a burst without touching the uncapped
// accounting — to the client the excess is ordinary path loss, which the
// fountain absorbs by design.
func TestUDPRateCap(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const cap = 50
	srv.SetLimits(UDPLimits{MaxPPS: cap})

	cli, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitSubs(t, func() bool { return srv.Subscribers(0) == 1 }, "subscription")

	// One big batch: the bucket holds one second's depth, so at most cap
	// packets pass and the rest are counted as rate-dropped.
	pkts := make([][]byte, 4*cap)
	for i := range pkts {
		pkts[i] = []byte{byte(i)}
	}
	if err := srv.SendBatch(0, pkts); err != nil {
		t.Fatal(err)
	}
	dropped := srv.Hardening().RateDropped
	if want := uint64(len(pkts) - cap); dropped != want {
		t.Fatalf("rate-dropped %d packets, want %d", dropped, want)
	}
	var rb RecvBatch
	defer rb.Free()
	got := 0
	for {
		n, err := cli.RecvBatch(&rb, 100*time.Millisecond)
		if err != nil {
			break
		}
		got += n
	}
	if got > cap {
		t.Fatalf("subscriber received %d packets past a %d pps cap", got, cap)
	}
}

// TestUDPStateFollowsMembership: the per-address defensive state lives
// only while its address is subscribed or serving an eviction penalty. A
// churn of clients on distinct ports under a rate cap (every written
// address gets a token bucket), an eviction served and rejoined, and the
// writes a fan-out still attempts to an address that left mid-batch all
// return the table to the resident subscriber's one entry — and so do
// evicted addresses that never come back, at the next join by anyone.
func TestUDPStateFollowsMembership(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLimits(UDPLimits{MaxPPS: 1000, EvictAfter: 1, EvictCooldown: 30 * time.Millisecond})
	states := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.state) + len(srv.penalty)
	}
	send := func() {
		for layer := 0; layer < 2; layer++ {
			srv.SendBatch(layer, [][]byte{[]byte("pkt")})
		}
	}

	resident, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resident.Close()
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 1 }, "resident subscription")
	send()
	if got := states(); got != 1 {
		t.Fatalf("baseline: %d state entries, want the resident's 1", got)
	}

	var last netip.AddrPort
	for i := 0; i < 20; i++ {
		cli, err := NewUDPClient(srv.Addr(), 1) // a fresh port, both layers
		if err != nil {
			t.Fatal(err)
		}
		waitSubs(t, func() bool { return srv.Subscribers(1) == 1 }, "churn join")
		send()
		if got := states(); got != 2 {
			t.Fatalf("client %d subscribed: %d state entries, want 2", i, got)
		}
		last = seenAs(srv, cli)
		cli.Close()
		waitSubs(t, func() bool { return srv.SubscriberTotal() == 1 }, "churn leave")
	}
	if got := states(); got != 1 {
		t.Fatalf("after 20 join/leave cycles: %d state entries, want 1", got)
	}

	// A fan-out gathered before the leave still reaches admitWrites and
	// noteResult for the departed address: neither may resurrect it.
	if n := srv.admitWrites(last, 1); n != 0 {
		t.Fatalf("admitted %d writes to a departed address", n)
	}
	srv.noteResult(last, errors.New("synthetic"))
	if got := states(); got != 1 {
		t.Fatalf("writes to a departed address left %d state entries, want 1", got)
	}

	// Evicted: the entry is the penalty box. Served and rejoined: reaped,
	// then rebuilt by the next write; left: gone.
	victim, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 2 }, "victim subscription")
	realWrite := srv.writeOne
	residentAddr := seenAs(srv, resident)
	onlyResident := func(pkt []byte, to netip.AddrPort) error {
		if to != residentAddr {
			return errors.New("synthetic broken path")
		}
		return realWrite(pkt, to)
	}
	srv.writeOne = onlyResident
	srv.batchPortable = true
	send()
	srv.writeOne = realWrite
	if srv.Hardening().Evictions != 1 || srv.SubscriberTotal() != 1 || states() != 2 {
		t.Fatalf("after eviction: %d evictions, %d subscribers, %d state entries; want 1, 1, 2",
			srv.Hardening().Evictions, srv.SubscriberTotal(), states())
	}
	time.Sleep(40 * time.Millisecond)
	if err := victim.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 2 }, "post-cooldown rejoin")
	if got := states(); got != 1 {
		t.Fatalf("served penalty not reaped on rejoin: %d state entries, want 1", got)
	}
	send()
	victim.Close()
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 1 }, "victim leave")
	if got := states(); got != 1 {
		t.Fatalf("after the victim left: %d state entries, want 1", got)
	}

	// Evicted and never seen again: the penalty entries of dead clients
	// outlive their cooldown only until the next join, whoever makes it.
	const dead = 5
	for i := 0; i < dead; i++ {
		cli, err := NewUDPClient(srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
	}
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 1+dead }, "dead clients' subscriptions")
	srv.writeOne = onlyResident
	send()
	srv.writeOne = realWrite
	if srv.Hardening().Evictions != 1+dead || srv.SubscriberTotal() != 1 || states() != 1+dead {
		t.Fatalf("after %d evictions: %d subscribers, %d state entries; want 1 and %d",
			srv.Hardening().Evictions, srv.SubscriberTotal(), states(), 1+dead)
	}
	time.Sleep(40 * time.Millisecond)
	late, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	waitSubs(t, func() bool { return srv.SubscriberTotal() == 2 }, "late join")
	send()
	if got := states(); got != 2 {
		t.Fatalf("served penalties of addresses that never returned: %d state entries, want the 2 subscribers'", got)
	}
}

// TestUDPResubscribeAfterRestart: a server that crashed and came back on
// the same port has an empty membership table; the client's Resubscribe
// datagram restores delivery with no other recovery action.
func TestUDPResubscribeAfterRestart(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewUDPClient(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitSubs(t, func() bool { return srv.Subscribers(0) == 1 }, "subscription")

	// Simulate the restart: the membership table is gone.
	srv.mu.Lock()
	srv.subs = make(map[subKey]map[netip.AddrPort]struct{})
	srv.addrRef = make(map[netip.AddrPort]int)
	srv.mu.Unlock()
	if got := srv.Subscribers(0); got != 0 {
		t.Fatalf("membership survived the simulated restart: %d", got)
	}

	if err := cli.Resubscribe(); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srv.Subscribers(0) == 1 }, "resubscription")
}

// TestRequestSessionInfoRetry: the bounded retry loop fails fast against a
// dead address, and succeeds once the control plane answers — even when
// the first attempts are met with silence, the crashed-mirror shape.
func TestRequestSessionInfoRetry(t *testing.T) {
	// A dead port: every attempt times out, the loop must stop at the
	// bound and report the attempt count.
	dead := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	policy := RetryPolicy{Attempts: 3, Timeout: 50 * time.Millisecond,
		Backoff: 10 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 1}
	start := time.Now()
	if _, err := RequestSessionInfoRetry(dead, proto.AppendHello(nil), policy); err == nil {
		t.Fatal("request against a dead port succeeded")
	} else if want := "after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the attempt bound", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded retry ran %v", elapsed)
	}

	// A control server that stays silent for the first two requests —
	// the restarting mirror — must be reached by a later attempt.
	var calls atomic.Int32
	reply := proto.SessionInfo{Session: 7, K: 10, N: 20, PacketLen: 32}.Append(nil)
	addr, stop, err := ServeControlFunc("127.0.0.1:0", func(req []byte) []byte {
		if calls.Add(1) <= 2 {
			return nil // silence: the request times out
		}
		return reply
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	got, err := RequestSessionInfoRetry(addr, proto.AppendHelloFor(nil, 7), policy)
	if err != nil {
		t.Fatalf("retry never reached the recovered control plane: %v", err)
	}
	info, err := proto.ParseSessionInfo(got)
	if err != nil || info.Session != 7 {
		t.Fatalf("bad descriptor after retry: %v %+v", err, info)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("control handler saw %d requests, want 3", n)
	}
}

// TestMultiClientRejoin: Rejoin(src) re-subscribes exactly that source.
func TestMultiClientRejoin(t *testing.T) {
	srvs := make([]*UDPServer, 2)
	addrs := make([]*net.UDPAddr, 2)
	for i := range srvs {
		s, err := NewUDPServer("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs[i] = s
		addrs[i] = s.Addr()
	}
	const session = 0xD0D0
	mc, err := NewMultiClient(addrs, session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	waitSubs(t, func() bool {
		return srvs[0].SessionSubscribers(session, 0) == 1 &&
			srvs[1].SessionSubscribers(session, 0) == 1
	}, "both subscriptions")

	// Mirror 1 restarts and loses its table; Rejoin(1) restores it.
	srvs[1].mu.Lock()
	srvs[1].subs = make(map[subKey]map[netip.AddrPort]struct{})
	srvs[1].addrRef = make(map[netip.AddrPort]int)
	srvs[1].mu.Unlock()
	if err := mc.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srvs[1].SessionSubscribers(session, 0) == 1 }, "rejoin")
	if err := mc.Rejoin(9); err == nil {
		t.Fatal("rejoin of an unknown source accepted")
	}
}
