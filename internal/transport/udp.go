package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
)

// The UDP substrate emulates per-group multicast membership with explicit
// subscribe/unsubscribe datagrams (a stand-in for IGMP). One server socket
// multiplexes any number of fountain sessions: a subscription names a
// (session, layer) pair, and SendBatch routes each packet to the subscribers
// of the session id carried in its 12-byte header. The wire format is
//
//	"SUB" <join:1> <layer:1> <session:2 BE>
//
// sent to the server's data port; the session SessionAny (0xFFFF) means
// "all sessions". Shorter datagrams are ignored.

// SessionAny is the wildcard session id: a subscription carrying it
// receives the named layer of every session the socket serves. Real session
// ids must not use this value.
const SessionAny uint16 = 0xFFFF

type subKey struct {
	session uint16
	layer   uint8
}

// UDPLimits hardens a UDPServer against broken or hostile subscribers. The
// zero value of each field selects a default (eviction) or disables the
// limit (admission cap, rate cap).
type UDPLimits struct {
	// MaxSubscribers caps the number of distinct subscriber addresses in
	// the membership table; joins beyond the cap are refused (0 = no cap).
	MaxSubscribers int
	// EvictAfter is the consecutive-write-error streak at which a
	// subscriber is evicted from every group (0 = 8). A fountain receiver
	// loses nothing it can't recover, and the server stops burning send
	// syscalls on a dead address.
	EvictAfter int
	// EvictCooldown is the penalty box: an evicted address cannot rejoin
	// until it elapses (0 = 1s).
	EvictCooldown time.Duration
	// MaxPPS caps each subscriber's delivery rate in packets/second,
	// enforced with a per-address token bucket of one second's depth
	// (0 = uncapped). Excess packets are dropped for that subscriber only —
	// to a fountain client that is indistinguishable from path loss.
	MaxPPS int
	// Log, when non-nil, receives one line per eviction and one line the
	// first time the admission cap refuses a join.
	Log func(format string, args ...any)
}

// UDPHardening is a snapshot of the server's defensive counters.
type UDPHardening struct {
	Evictions    uint64 // subscribers evicted for persistent write errors
	RefusedJoins uint64 // joins refused by the admission cap or penalty box
	RateDropped  uint64 // packets dropped by per-subscriber rate caps
}

// subState is the server's defensive state for one subscribed address. An
// entry lives only while its address is subscribed: leaving and eviction
// both delete it.
type subState struct {
	errStreak  int
	tokens     float64
	lastRefill time.Time
}

// UDPServer owns the data socket and the per-(session, layer) subscriber
// sets. It satisfies the unified transport.Sender: SendBatch(layer, pkts)
// parses the session id out of each packet header and unicasts to that
// session's subscribers plus any wildcard subscribers — so one socket
// serves a whole multi-session service with no per-session sockets — with
// one routing pass per batch and per-subscriber write coalescing (sendmmsg
// on Linux, a portable write loop elsewhere).
//
// Every packet buffer is encoded exactly once and the same bytes are
// handed to the kernel for every subscriber; nothing on the fan-out path
// copies packet data.
type UDPServer struct {
	conn   *net.UDPConn
	layers int
	mu     sync.Mutex
	subs   map[subKey]map[netip.AddrPort]struct{}
	// addrRef counts how many (session, layer) sets each subscriber
	// address appears in — the admission cap's distinct-address count.
	addrRef map[netip.AddrPort]int
	state   map[netip.AddrPort]*subState
	// penalty is the eviction penalty box: evicted (hence unsubscribed)
	// addresses and the end of their cooldown. Every join sweeps it.
	penalty map[netip.AddrPort]time.Time
	limits  UDPLimits
	// hardening counters; guarded by mu.
	evictions, refusedJoins, rateDropped uint64
	loggedCap                            bool
	done                                 chan struct{}
	loopDone                             chan struct{}
	closing                              sync.Once
	closeErr                             error

	// sendMu serializes the fan-out scratch below. Writes on one UDP
	// socket serialize in the kernel anyway, so this costs no parallelism
	// and keeps steady-state sends allocation-free.
	sendMu   sync.Mutex
	addrBuf  []netip.AddrPort
	v4Socket bool            // data socket is AF_INET: the sendmmsg fast path applies
	rawConn  syscall.RawConn // cached once: SyscallConn allocates per call
	mmsg     *sendState      // reusable kernel batch-write state

	// writeOne is the single-datagram write, overridable by tests to
	// observe the exact buffers handed to the kernel (see the buffer
	// identity regression test). batchPortable forces the portable write
	// loop even where a kernel batch syscall is available.
	writeOne      func(pkt []byte, to netip.AddrPort) error
	batchPortable bool

	// Traffic accounting: datagram writes handed to the kernel (attempted,
	// per destination — one packet fanned out to N subscribers counts N)
	// and the per-subscriber batch-size distribution. Lock-free atomics and
	// a fixed-bucket histogram, so the zero-alloc send path stays that way;
	// RegisterMetrics exposes them on a scrape registry.
	txPackets atomic.Uint64
	txBytes   atomic.Uint64
	txBatch   *metrics.Histogram
}

// NewUDPServer listens on addr (e.g. "127.0.0.1:0") and serves `layers`
// groups.
func NewUDPServer(addr string, layers int) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s := &UDPServer{
		conn:     conn,
		layers:   layers,
		subs:     make(map[subKey]map[netip.AddrPort]struct{}),
		addrRef:  make(map[netip.AddrPort]int),
		state:    make(map[netip.AddrPort]*subState),
		penalty:  make(map[netip.AddrPort]time.Time),
		limits:   UDPLimits{EvictAfter: 8, EvictCooldown: time.Second},
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
		v4Socket: conn.LocalAddr().(*net.UDPAddr).IP.To4() != nil,
		txBatch:  metrics.NewHistogram(batchSizeBounds...),
	}
	s.writeOne = func(pkt []byte, to netip.AddrPort) error {
		_, err := s.conn.WriteToUDPAddrPort(pkt, to)
		return err
	}
	// A nil rawConn (a SyscallConn failure) just disables the kernel
	// batch fast path; the portable loop covers everything.
	s.rawConn, _ = conn.SyscallConn()
	go s.membershipLoop()
	return s, nil
}

// Addr returns the data socket address.
func (s *UDPServer) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

func (s *UDPServer) membershipLoop() {
	defer close(s.loopDone)
	buf := make([]byte, 64)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		if n >= 7 && string(buf[:3]) == "SUB" {
			join := buf[3] == 1
			layer := int(buf[4])
			if layer < 0 || layer >= s.layers {
				continue
			}
			session := uint16(buf[5])<<8 | uint16(buf[6])
			// Unmap 4-in-6 forms so one client always keys identically.
			addr := netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
			key := subKey{session, uint8(layer)}
			s.mu.Lock()
			if join {
				if !s.admitJoinLocked(addr) {
					s.mu.Unlock()
					continue
				}
				set := s.subs[key]
				if set == nil {
					set = make(map[netip.AddrPort]struct{})
					s.subs[key] = set
				}
				if _, dup := set[addr]; !dup {
					set[addr] = struct{}{}
					s.addrRef[addr]++
				}
			} else if set := s.subs[key]; set != nil {
				if _, had := set[addr]; had {
					delete(set, addr)
					if len(set) == 0 {
						delete(s.subs, key)
					}
					if s.addrRef[addr]--; s.addrRef[addr] <= 0 {
						delete(s.addrRef, addr)
						delete(s.state, addr)
					}
				}
			}
			s.mu.Unlock()
		}
	}
}

// SetLimits replaces the server's hardening limits. Zero-valued fields
// fall back to the construction defaults (EvictAfter 8, EvictCooldown 1s);
// MaxSubscribers and MaxPPS stay disabled when zero.
func (s *UDPServer) SetLimits(l UDPLimits) {
	if l.EvictAfter <= 0 {
		l.EvictAfter = 8
	}
	if l.EvictCooldown <= 0 {
		l.EvictCooldown = time.Second
	}
	s.mu.Lock()
	s.limits = l
	s.mu.Unlock()
}

// Hardening returns a snapshot of the defensive counters.
func (s *UDPServer) Hardening() UDPHardening {
	s.mu.Lock()
	defer s.mu.Unlock()
	return UDPHardening{
		Evictions:    s.evictions,
		RefusedJoins: s.refusedJoins,
		RateDropped:  s.rateDropped,
	}
}

// admitJoinLocked decides whether a join from addr is allowed: refused
// while the address sits in the eviction penalty box, and refused for new
// addresses beyond the MaxSubscribers cap. Callers hold s.mu.
func (s *UDPServer) admitJoinLocked(addr netip.AddrPort) bool {
	// Served penalties go first, everyone's: an evicted address that never
	// comes back must not cost an entry for the life of the server.
	now := time.Now()
	for a, until := range s.penalty {
		if !now.Before(until) {
			delete(s.penalty, a)
		}
	}
	if _, boxed := s.penalty[addr]; boxed {
		s.refusedJoins++
		return false
	}
	if s.limits.MaxSubscribers > 0 && s.addrRef[addr] == 0 &&
		len(s.addrRef) >= s.limits.MaxSubscribers {
		s.refusedJoins++
		if s.limits.Log != nil && !s.loggedCap {
			s.loggedCap = true
			s.limits.Log("transport: subscriber cap %d reached, refusing new joins",
				s.limits.MaxSubscribers)
		}
		return false
	}
	return true
}

// admitWrites consults addr's token bucket for a want-packet delivery and
// returns how many packets may actually be written (want when uncapped).
// The bucket holds one second's worth of the cap, so a subscriber may
// burst up to MaxPPS packets and then sustains MaxPPS.
func (s *UDPServer) admitWrites(addr netip.AddrPort, want int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, boxed := s.penalty[addr]; boxed {
		return 0 // raced an eviction: the penalty box wins
	}
	st := s.state[addr]
	cap := s.limits.MaxPPS
	if cap <= 0 {
		return want
	}
	if st == nil {
		if s.addrRef[addr] == 0 {
			return 0 // left since the gather: no state for a departed address
		}
		st = &subState{}
		s.state[addr] = st
	}
	now := time.Now()
	if st.lastRefill.IsZero() {
		st.tokens = float64(cap)
	} else {
		st.tokens += now.Sub(st.lastRefill).Seconds() * float64(cap)
		if st.tokens > float64(cap) {
			st.tokens = float64(cap)
		}
	}
	st.lastRefill = now
	n := want
	if st.tokens < float64(n) {
		n = int(st.tokens)
	}
	st.tokens -= float64(n)
	if n < want {
		s.rateDropped += uint64(want - n)
	}
	return n
}

// noteResult records one delivery attempt's outcome for addr: success
// clears the error streak, failure extends it, and a streak of EvictAfter
// evicts the subscriber from every group — with a cooldown penalty box and
// a single log line — so a dead or firewalled address stops consuming send
// syscalls on every round.
func (s *UDPServer) noteResult(addr netip.AddrPort, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state[addr]
	if err == nil {
		if st != nil {
			st.errStreak = 0
		}
		return
	}
	if st == nil {
		if s.addrRef[addr] == 0 {
			return // left since the gather
		}
		st = &subState{}
		s.state[addr] = st
	}
	st.errStreak++
	if st.errStreak < s.limits.EvictAfter {
		return
	}
	for key, set := range s.subs {
		if _, ok := set[addr]; ok {
			delete(set, addr)
			if len(set) == 0 {
				delete(s.subs, key)
			}
		}
	}
	delete(s.addrRef, addr)
	delete(s.state, addr)
	s.penalty[addr] = time.Now().Add(s.limits.EvictCooldown)
	s.evictions++
	if s.limits.Log != nil {
		s.limits.Log("transport: evicted subscriber %s after %d consecutive write errors (cooldown %v)",
			addr, s.limits.EvictAfter, s.limits.EvictCooldown)
	}
}

// gatherAddrs collects the destination set of one (session, layer) into
// dst: that session's subscribers plus the layer's wildcard subscribers,
// deduplicated. Callers hold s.sendMu (dst is the server's scratch).
func (s *UDPServer) gatherAddrs(dst []netip.AddrPort, session uint16, layer int) []netip.AddrPort {
	s.mu.Lock()
	wild := s.subs[subKey{SessionAny, uint8(layer)}]
	var specific map[netip.AddrPort]struct{}
	if session != SessionAny {
		specific = s.subs[subKey{session, uint8(layer)}]
	}
	for a := range wild {
		dst = append(dst, a)
	}
	for a := range specific {
		// Dedup against wildcard only when both sets are live (rare).
		if len(wild) > 0 {
			if _, dup := wild[a]; dup {
				continue
			}
		}
		dst = append(dst, a)
	}
	s.mu.Unlock()
	return dst
}

// packetSession reads the routing session id out of a packet: packets too
// short to carry a header route to wildcard subscribers only.
func packetSession(pkt []byte) uint16 {
	if h, _, err := proto.ParseHeader(pkt); err == nil {
		return h.Session
	}
	return SessionAny
}

// SendBatch unicasts a batch of packets on one layer: the batch is routed
// in runs of identical session ids (one subscriber-set gather per run —
// a carousel round's batch is a single run), and each subscriber's writes
// are coalesced (sendmmsg where available, a portable loop elsewhere).
// Buffers are handed to the kernel as-is: one encode, many writes, no
// copies; they may be reused as soon as SendBatch returns.
//
// Errors are isolated per subscriber: a broken destination (firewalled,
// buffer-exhausted) forfeits at most its own remainder of the batch,
// every other subscriber still receives everything, and the first error
// is returned at the end — so one bad receiver cannot starve the rest of
// the fan-out.
func (s *UDPServer) SendBatch(layer int, pkts [][]byte) error {
	if layer < 0 || layer >= s.layers {
		return fmt.Errorf("transport: layer %d out of range", layer)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	var first error
	for lo := 0; lo < len(pkts); {
		session := packetSession(pkts[lo])
		hi := lo + 1
		for hi < len(pkts) && packetSession(pkts[hi]) == session {
			hi++
		}
		addrs := s.gatherAddrs(s.addrBuf[:0], session, layer)
		s.addrBuf = addrs[:0]
		for _, a := range addrs {
			n := s.admitWrites(a, hi-lo)
			if n == 0 {
				continue
			}
			err := s.writeBatchTo(pkts[lo:lo+n], a)
			s.noteResult(a, err)
			var nb uint64
			for _, p := range pkts[lo : lo+n] {
				nb += uint64(len(p))
			}
			s.txPackets.Add(uint64(n))
			s.txBytes.Add(nb)
			s.txBatch.Observe(int64(n))
			if err != nil && first == nil {
				first = err
			}
		}
		lo = hi
	}
	return first
}

// writePortable is the substrate-independent per-subscriber batch write.
// Per-packet errors are isolated (every packet is attempted; the first
// error is returned), matching the pre-batching per-packet send path.
func (s *UDPServer) writePortable(pkts [][]byte, to netip.AddrPort) error {
	var first error
	for _, pkt := range pkts {
		if err := s.writeOne(pkt, to); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Subscribers returns the number of distinct addresses subscribed to a
// layer across all sessions (including wildcard subscriptions).
func (s *UDPServer) Subscribers(layer int) int {
	if layer < 0 || layer >= s.layers {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[netip.AddrPort]struct{})
	for key, set := range s.subs {
		if key.layer == uint8(layer) {
			for a := range set {
				seen[a] = struct{}{}
			}
		}
	}
	return len(seen)
}

// SubscriberTotal returns the number of distinct subscriber addresses
// across all sessions and layers.
func (s *UDPServer) SubscriberTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrRef)
}

// Traffic returns the datagram writes handed to the kernel so far: packets
// (per destination — one packet fanned out to N subscribers counts N) and
// their total bytes.
func (s *UDPServer) Traffic() (packets, bytes uint64) {
	return s.txPackets.Load(), s.txBytes.Load()
}

// SessionSubscribers returns the subscriber count of one (session, layer)
// pair (wildcard subscribers are not counted; pass SessionAny for those).
func (s *UDPServer) SessionSubscribers(session uint16, layer int) int {
	if layer < 0 || layer >= s.layers {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs[subKey{session, uint8(layer)}])
}

// Close shuts the socket down and waits for the membership goroutine to
// exit, so no reads race a caller that frees resources after Close.
func (s *UDPServer) Close() error {
	s.closing.Do(func() {
		close(s.done)
		s.closeErr = s.conn.Close()
		<-s.loopDone
	})
	return s.closeErr
}

// UDPClient is the receiver side of the UDP substrate, subscribed to one
// session (or to all of them, with SessionAny).
//
// RecvBatch is single-reader: run one receive loop per client.
// SetLevel/Resubscribe/Close may be called concurrently with it.
type UDPClient struct {
	conn    *net.UDPConn
	server  *net.UDPAddr
	session uint16
	raw     syscall.RawConn // cached once: SyscallConn allocates per call
	mu      sync.Mutex
	level   int
	closed  bool

	recvSize int        // per-datagram receive buffer capacity
	rmmsg    *recvState // reusable kernel batch-read state (single-reader)

	// Traffic accounting mirroring the server's send side: datagrams and
	// bytes taken off the socket, and the kernel-visit batch-size
	// distribution. Lock-free; see RegisterMetrics.
	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
	rxBatch   *metrics.Histogram
}

// rxSocketBuffer is the receive buffer every client socket requests. A
// receive loop stalls while its decoder works (Receiver.File on a
// k = 2500 session takes 40-80 ms), and a saturating sender keeps
// sending; whatever the socket cannot queue in the meantime the kernel
// drops. The common Linux default (rmem_default, 212 992 B) queues 92 wire
// packets of 1 040 B — a few milliseconds of stream. Linux grants
// 2·min(request, net.core.rmem_max): 8 MiB, about 3 600 such packets,
// where rmem_max is 4 MiB. Of the sizes measured on a saturated four-codec
// download (EXPERIMENTS.md), 1 MiB bought about a third of 4 MiB's
// reception-overhead gain.
const rxSocketBuffer = 4 << 20

// NewUDPClient dials the server's data port and subscribes to layers
// 0..level of every session the server carries (wildcard).
func NewUDPClient(server *net.UDPAddr, level int) (*UDPClient, error) {
	return NewUDPClientSession(server, SessionAny, level)
}

// NewUDPClientSession dials the server's data port and subscribes to layers
// 0..level of one session.
func NewUDPClientSession(server *net.UDPAddr, session uint16, level int) (*UDPClient, error) {
	// The unspecified address of the server's family: the kernel picks the
	// source address that routes to the server, loopback or not.
	network := "udp4"
	if server.IP.To4() == nil {
		network = "udp6"
	}
	conn, err := net.ListenUDP(network, nil)
	if err != nil {
		return nil, err
	}
	// Best effort: a request the kernel caps is not an error (SocketStats
	// reports the grant), and some platforms refuse a size they cannot give.
	_ = conn.SetReadBuffer(rxSocketBuffer)
	c := &UDPClient{conn: conn, server: server, session: session, level: -1,
		recvSize: defaultRecvSize, rxBatch: metrics.NewHistogram(batchSizeBounds...)}
	// A nil raw conn just disables the kernel batch read; the portable
	// single-read path covers everything.
	c.raw, _ = conn.SyscallConn()
	if err := c.SetLevel(level); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Session returns the session id the client subscribes to (SessionAny for
// wildcard clients).
func (c *UDPClient) Session() uint16 { return c.session }

func (c *UDPClient) sendSub(layer int, join bool) error {
	b := []byte{'S', 'U', 'B', 0, byte(layer), byte(c.session >> 8), byte(c.session)}
	if join {
		b[3] = 1
	}
	_, err := c.conn.WriteToUDP(b, c.server)
	return err
}

// SetLevel adjusts the cumulative subscription (joins/leaves the delta).
func (c *UDPClient) SetLevel(level int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("transport: client closed")
	}
	for l := c.level + 1; l <= level; l++ {
		if err := c.sendSub(l, true); err != nil {
			return err
		}
	}
	for l := c.level; l > level; l-- {
		if err := c.sendSub(l, false); err != nil {
			return err
		}
	}
	c.level = level
	return nil
}

// Level returns the current subscription level.
func (c *UDPClient) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Resubscribe re-sends the join datagram for every currently subscribed
// layer. Joins are idempotent on the server, so this is the client's
// recovery action whenever the server may have lost its membership table —
// a crash/restart, or an eviction whose cooldown has passed.
func (c *UDPClient) Resubscribe() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("transport: client closed")
	}
	for l := 0; l <= c.level; l++ {
		if err := c.sendSub(l, true); err != nil {
			return err
		}
	}
	return nil
}

// Close leaves all groups and closes the socket. The client runs no
// background goroutine, so — unlike UDPServer.Close — there is nothing to
// join; a concurrent RecvBatch simply returns ErrClosed once the socket
// closes.
func (c *UDPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	level := c.level
	for l := 0; l <= level; l++ {
		c.sendSub(l, false)
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// controlReplySize bounds a control reply: a full catalog can run to
// ~65000 bytes (proto.MaxCatalogEntries), so a control read takes a 64 KiB
// buffer. Control requests are a handful per download, so each has its own.
const controlReplySize = 65536

// RequestSessionInfo sends a hello to a control address and waits for the
// session descriptor datagram. The reply is returned in a fresh
// exact-sized slice the caller owns.
//
// Errors are classified: ErrTimeout when the reply deadline elapsed (the
// server may just be slow — retrying is sensible), ErrClosed when the
// socket died (retrying the same conn is pointless), anything else passed
// through. Both sentinels match with errors.Is.
func RequestSessionInfo(control *net.UDPAddr, hello []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.DialUDP("udp", nil, control)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return requestOnConn(conn, hello, timeout)
}

// requestOnConn is one control round-trip on an existing connected socket.
// Every socket-layer failure is surfaced and classified — the old form
// discarded the SetReadDeadline error and folded every read failure into a
// constant "timed out" string, so a closed socket (or an ICMP port
// unreachable) sent callers into a futile timeout-retry loop instead of
// failing fast with ErrClosed.
func requestOnConn(conn *net.UDPConn, hello []byte, timeout time.Duration) ([]byte, error) {
	if _, err := conn.Write(hello); err != nil {
		return nil, fmt.Errorf("transport: control request: %w", classifyRecvErr(err))
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("transport: control deadline: %w", classifyRecvErr(err))
	}
	buf := make([]byte, controlReplySize)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("transport: control request: %w", classifyRecvErr(err))
	}
	return bytes.Clone(buf[:n]), nil
}

// ServeControlFunc answers control datagrams on addr: every received
// datagram is passed to handle, and a non-nil reply is sent back to the
// requester. stop closes the socket and waits for the read loop to exit.
func ServeControlFunc(addr string, handle func(req []byte) []byte) (local *net.UDPAddr, stop func(), err error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		buf := make([]byte, 4096)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				select {
				case <-done:
					return
				default:
					continue
				}
			}
			if reply := handle(buf[:n]); reply != nil {
				conn.WriteToUDP(reply, from)
			}
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			conn.Close()
			<-loopDone
		})
	}
	return conn.LocalAddr().(*net.UDPAddr), stop, nil
}
