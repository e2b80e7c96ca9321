// Package fountain is a Go implementation of the digital fountain approach
// to reliable distribution of bulk data (Byers, Luby, Mitzenmacher, Rege —
// SIGCOMM 1998).
//
// A digital fountain server encodes a file once with a fast erasure code
// and cycles endlessly through the encoding; any number of receivers join
// at any time, collect whichever packets the network delivers, and
// reconstruct the file as soon as enough packets — any packets — have
// arrived. No feedback channel, retransmission, or per-receiver state is
// needed.
//
// The package exposes:
//
//   - Erasure codecs: Tornado codes (the paper's contribution: XOR-only
//     sparse-graph codes with a few percent reception overhead and
//     near-linear coding time), Reed-Solomon baselines (Vandermonde and
//     Cauchy), interleaved block codes, a rateless LT code (the true
//     unbounded fountain the fixed-rate codes approximate — see NewLT),
//     and a precoded systematic raptor code whose first k packets are the
//     source itself (see NewRaptor).
//   - Sessions: a file bound to a codec and a carousel/layered schedule.
//   - One send path: a multi-session Service emits every session's
//     carousel rounds as per-layer batches in its emitters' own buffers,
//     paced by its scheduler (Service.AddPhased) or stepped by the caller
//     (Service.AddManual and Service.EmitRound, the virtual-time shape of
//     the simulations).
//   - One receive path: a Client engine takes each wire packet (12-byte
//     header, payload, CRC32C trailer) through HandlePacket,
//     HandlePacketFrom or HandleBatchFrom, with loss accounting, SP/burst
//     layered congestion control and per-mirror sources.
//   - Transports between them: the in-process lossy Bus and UDP.
//
// ExampleNewClient shows a whole download. See examples/ for runnable
// programs and DESIGN.md / EXPERIMENTS.md for the paper-reproduction
// methodology and results.
package fountain

import (
	"net"

	"repro/internal/client"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/interleave"
	"repro/internal/lt"
	"repro/internal/proto"
	"repro/internal/raptor"
	"repro/internal/rs"
	"repro/internal/service"
	"repro/internal/tornado"
	"repro/internal/transport"
)

// Codec is a systematic erasure code over fixed-size packets: k source
// packets are stretched to n encoding packets, and decoders report — packet
// by packet — when the source is recoverable.
type Codec = code.Codec

// Decoder incrementally consumes encoding packets (in any order, with any
// subset missing) until the source is recoverable.
type Decoder = code.Decoder

// ErrNotReady is returned by Decoder.Source before enough packets arrived.
var ErrNotReady = code.ErrNotReady

// Tornado code variants (§5 of the paper).
var (
	// TornadoA is the fast variant (average reception overhead ≈ 5%).
	TornadoA = tornado.A
	// TornadoB is the slower, lower-overhead variant (≈ 3%).
	TornadoB = tornado.B
)

// NewTornado constructs a Tornado codec: an XOR-only erasure code over a
// cascade of sparse random bipartite graphs whose degrees were designed by
// LP offline (the table is the design). n must be a whole stretch factor
// s·k, s in 2..16, as in a session descriptor. The seed determines the
// graphs; sender and receivers must agree on it.
func NewTornado(p tornado.Params, k, n, packetLen int, seed int64) (Codec, error) {
	return tornado.New(p, k, n, packetLen, seed)
}

// NewVandermonde constructs the Rizzo-style Reed-Solomon baseline over
// GF(2^16): optimal reception (any k of n) but O(k·l) encode and O(k^3)
// decode — the cost the paper's Tables 2-3 quantify.
func NewVandermonde(k, n, packetLen int) (Codec, error) {
	return rs.NewVandermonde(k, n, packetLen)
}

// NewCauchy constructs the Blömer-style Cauchy Reed-Solomon baseline
// (XOR bit-matrix coding, closed-form O(x^2) decode-matrix inversion).
func NewCauchy(k, n, packetLen int) (Codec, error) {
	return rs.NewCauchy(k, n, packetLen)
}

// NewInterleaved constructs the interleaved block-code baseline of §6:
// blocks of blockK source packets individually Reed-Solomon coded and
// interleaved on the carousel.
func NewInterleaved(totalK, blockK, stretch, packetLen int) (Codec, error) {
	return interleave.NewForFile(totalK, blockK, stretch, packetLen)
}

// RatelessN is the N() sentinel of a rateless codec: the index space is
// effectively unbounded, so carousels stream fresh monotone indices
// forever instead of cycling a finite encoding.
const RatelessN = code.UnboundedN

// NewLT constructs the rateless Luby Transform codec — the realization of
// the paper's ideal digital fountain (§3, §9). Every encoding packet's
// degree and neighbor set are a pure function of (seed, index) under a
// robust soliton distribution fixed by k. Any k(1+ε) distinct packets
// decode, ε a few percent, via peeling plus an inactivation fallback. LT
// sessions need no stretch factor, no carousel phase coordination between
// mirrors, and no repair memory beyond the source packets.
func NewLT(k, packetLen int, seed int64) (Codec, error) {
	return lt.New(k, packetLen, seed)
}

// NewRaptor constructs the precoded systematic rateless codec: a sparse
// Tornado-style precode stretches the k source packets to k+s intermediate
// symbols, and a weakened truncated-soliton LT code emits over the
// intermediates. The first k encoding packets ARE the source packets — a
// lossless receiver stores k packets verbatim and performs zero XOR work —
// and the precode's check equations are free rank, so decode cost stays
// linear and reception overhead a couple of percent. The check count s and
// the inner degree truncation are functions of k.
func NewRaptor(k, packetLen int, seed int64) (Codec, error) {
	return raptor.New(k, packetLen, seed)
}

// IsRateless reports whether a codec's index space is unbounded (its N()
// is RatelessN and every packet is derivable independently by index).
func IsRateless(c Codec) bool { return code.IsRateless(c) }

// Encode returns the whole encoding of a fixed-rate codec: n packets, the
// source packets among them aliasing src. A rateless codec has no whole
// encoding and is refused: its packets are encoded one at a time, through
// the RowEncoder methods every Codec has (Columns, SourceOf, EncodeInto).
func Encode(c Codec, src [][]byte) ([][]byte, error) { return code.EncodeAll(c, src) }

// Session is an encoded file ready for fountain transmission.
type Session = core.Session

// Config selects a session's codec, packet size, stretch factor, layer
// count and seed.
type Config = core.Config

// SessionInfo is the control-channel descriptor a server hands to clients.
type SessionInfo = proto.SessionInfo

// Codec identifiers for Config.Codec / SessionInfo.Codec.
const (
	CodecTornadoA    = proto.CodecTornadoA
	CodecTornadoB    = proto.CodecTornadoB
	CodecCauchy      = proto.CodecCauchy
	CodecInterleaved = proto.CodecInterleaved
	CodecLT          = proto.CodecLT
	CodecRaptor      = proto.CodecRaptor
)

// DefaultConfig mirrors the paper's prototype: Tornado A, 500-byte
// payloads, stretch 2, 4 layers.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSession encodes data for fountain distribution (eagerly — the full
// encoding is materialized up front). The session keeps data: do not modify it.
func NewSession(data []byte, cfg Config) (*Session, error) { return core.NewSession(data, cfg) }

// BlockCache is the byte budget lazily encoded sessions share: hand one to
// every NewSessionCached call so a server holding many files keeps its
// repair-packet memory under a single budget. A coded packet stays resident
// from its first touch while the budget has room and is encoded per
// emission once it has none; nothing is evicted.
type BlockCache = core.BlockCache

// NewBlockCache creates a packet budget of capBytes.
func NewBlockCache(capBytes int64) *BlockCache { return core.NewBlockCache(capBytes) }

// NewSessionCached builds a session that encodes coded packets on first
// carousel touch and keeps them as far as the shared budget allows; every
// codec, Tornado included, encodes this way. The session keeps data: do not
// modify it.
func NewSessionCached(data []byte, cfg Config, cache *BlockCache) (*Session, error) {
	return core.NewSessionCached(data, cfg, cache)
}

// Carousel walks a session's transmission schedule as a stream of stamped
// wire packets (rounds, per-layer serials, SP/burst flags).
// Service.AddManual returns one; Service.EmitRound sends its next round.
type Carousel = core.Carousel

// Client is the receiving engine and the one way a wire packet enters:
// HandlePacket, HandlePacketFrom and HandleBatchFrom verify the integrity
// tag, check the header against the session, account loss and duplicates
// per source, run layered congestion control, decode, and File checks the
// result against the descriptor's SHA-256 digest.
type Client = client.Engine

// NewClient builds a client engine from a session descriptor; setLevel (may
// be nil) is called when the congestion controller changes the
// subscription level.
func NewClient(info SessionInfo, startLevel int, setLevel func(int)) (*Client, error) {
	return client.New(info, startLevel, setLevel)
}

// SourceStats is the per-mirror accounting snapshot of a multi-source
// client (received/lost/distinct/duplicate packets, measured loss, and the
// source controller's level).
type SourceStats = client.SourceStats

// NewMultiSourceClient builds a client engine that harvests one session
// from several independent mirrors (§8 "mirrored data"): feed it packets
// with Client.HandlePacketFrom(source, pkt). Loss is measured per
// (source, layer) serial space, duplicate/distinct contributions are
// tracked per source, and the subscription level passed to setLevel is the
// minimum across the per-source congestion controllers — the worst-loss
// source rule.
func NewMultiSourceClient(info SessionInfo, sources, startLevel int, setLevel func(int)) (*Client, error) {
	return client.NewMultiSource(info, sources, startLevel, setLevel)
}

// Sender is the transmit side of a transport: per-layer SendBatch. Bus
// and UDPServer implement it; the service's pacing scheduler emits whole
// carousel rounds through it as per-layer batches built in buffers each
// emitter owns (zero-copy, zero-alloc). Packet buffers are reused once
// SendBatch returns, so receivers must copy anything they keep.
type Sender = transport.Sender

// Bus is the in-process lossy multicast transport (deterministic, virtual
// time — used by the simulations and examples).
type Bus = transport.Bus

// NewBus creates an in-process transport with the given layer count.
func NewBus(layers int) *Bus { return transport.NewBus(layers) }

// UDPServer / UDPClient are the real-socket transport of the prototype.
type (
	// UDPServer owns the data socket and per-layer subscriber sets.
	UDPServer = transport.UDPServer
	// UDPClient subscribes to layers and receives packets.
	UDPClient = transport.UDPClient
)

// NewUDPServer listens on addr and serves the given number of layers.
func NewUDPServer(addr string, layers int) (*UDPServer, error) {
	return transport.NewUDPServer(addr, layers)
}

// NewUDPClient dials a UDP server's data address and subscribes to layers
// 0..level of every session the server carries.
func NewUDPClient(server *net.UDPAddr, level int) (*UDPClient, error) {
	return transport.NewUDPClient(server, level)
}

// NewUDPClientSession dials a UDP server's data address and subscribes to
// layers 0..level of one session (the server muxes all its sessions over
// one data socket).
func NewUDPClientSession(server *net.UDPAddr, session uint16, level int) (*UDPClient, error) {
	return transport.NewUDPClientSession(server, session, level)
}

// MultiClient joins the same session on several fountain servers at once
// and funnels their packets, tagged with a source index, into one queue —
// the transport half of the §8 mirrored-download application.
type MultiClient = transport.MultiClient

// NewMultiClient dials every server's data address and subscribes each to
// layers 0..level of the session. Pair it with NewMultiSourceClient:
// RecvBatchFrom's source index feeds HandleBatchFrom.
func NewMultiClient(servers []*net.UDPAddr, session uint16, level int) (*MultiClient, error) {
	return transport.NewMultiClient(servers, session, level)
}

// SessionAny is the wildcard session id for UDP subscriptions.
const SessionAny = transport.SessionAny

// RecvBatch is a reusable set of receive buffers, owned by one loop, for
// UDPClient.RecvBatch — one recvmmsg(2) visit per fill on linux/amd64, so
// a steady-state receive loop drains datagram bursts with one syscall and
// zero allocations.
type RecvBatch = transport.RecvBatch

// Receive-loop terminal conditions: ErrTimeout means the socket is healthy
// but idle (poll again); ErrClosed means the client was closed (stop).
var (
	ErrRecvClosed  = transport.ErrClosed
	ErrRecvTimeout = transport.ErrTimeout
)

// UDPLimits is a UDP server's admission-control and abuse policy: a cap
// on distinct subscriber addresses, eviction of subscribers whose writes
// keep failing (with a cooldown penalty box), and an optional
// per-subscriber packets-per-second token bucket. Apply with
// UDPServer.SetLimits; inspect the counters with UDPServer.Hardening.
type UDPLimits = transport.UDPLimits

// UDPHardening is the snapshot of a UDP server's policy counters:
// evictions, refused joins, and rate-capped drops.
type UDPHardening = transport.UDPHardening

// RetryPolicy bounds a control-plane request: per-attempt timeout and a
// jittered exponential backoff between attempts, so clients fail fast
// against dead servers and still reach slow or restarting ones.
type RetryPolicy = transport.RetryPolicy

// RequestSessionInfoRetry sends a control request under a RetryPolicy.
// The zero policy means 5 attempts, 500ms timeout, 100ms base backoff.
func RequestSessionInfoRetry(ctrl *net.UDPAddr, req []byte, p RetryPolicy) ([]byte, error) {
	return transport.RequestSessionInfoRetry(ctrl, req, p)
}

// Service is the multi-session fountain server core: a registry of
// concurrent sessions over one transport, all driven by one shared pacing
// scheduler (a deadline heap per shard worker — no per-session
// goroutines), emitting through per-shard buffers and per-layer batches,
// with a shared bounded lazy-encoding cache, catalog discovery, and basic
// counters.
type Service = service.Service

// ServiceConfig tunes a Service (cache budget, default rate, scheduler
// shard count).
type ServiceConfig = service.Config

// ServiceStats is a snapshot of a Service's counters.
type ServiceStats = service.Stats

// Admission-control errors from Service session registration.
var (
	// ErrSessionLimit is returned when ServiceConfig.MaxSessions is
	// reached; freeing a slot (Service.Remove) admits again.
	ErrSessionLimit = service.ErrSessionLimit
	// ErrDraining is returned once Service.Drain has begun: the service
	// finishes in-flight rounds and keeps answering control probes, but
	// registers nothing new.
	ErrDraining = service.ErrDraining
)

// NewService creates a service transmitting on tx, which receives every
// round as whole per-layer batches. Add paced sessions with
// Service.AddDataPhased or Service.AddPhased (a nonzero phase staggers a
// mirror's carousel), or register one with Service.AddManual and send its
// rounds one Service.EmitRound call at a time — the same batched emission
// the scheduler runs, on the caller's clock. Serve discovery by wiring
// Service.HandleControl to a control socket.
func NewService(tx Sender, cfg ServiceConfig) *Service { return service.New(tx, cfg) }
