// Package proto defines the wire format of the prototype distribution
// system (§7.3): the 12-byte data-packet header ("the packets were
// additionally tagged with 12 bytes of information (packet index, serial
// number and group number)"), and the unicast control messages the server
// uses to hand clients the session parameters (multicast group information,
// file length, code configuration).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// HeaderLen is the size of the data packet header: 12 bytes, as in the
// paper's prototype.
const HeaderLen = 12

// TagLen is the size of the per-packet integrity trailer: a CRC32C
// (Castagnoli) checksum over header and payload, appended after the
// payload. UDP's own 16-bit checksum is optional and weak; the trailer
// makes corruption on hostile channels indistinguishable from loss — a
// corrupted packet is dropped before it can poison the decoder.
const TagLen = 4

// castagnoli is the CRC32C table; the Castagnoli polynomial has hardware
// support on amd64/arm64, so tagging costs a few ns per packet and
// allocates nothing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Tag computes the CRC32C integrity checksum of a packet body
// (header + payload, trailer excluded).
func Tag(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// AppendTag appends the 4-byte integrity trailer covering all of pkt and
// returns the extended slice. With trailing capacity available it compiles
// to a checksum and four stores — the zero-alloc emit path tags in place.
func AppendTag(pkt []byte) []byte {
	sum := Tag(pkt)
	return append(pkt, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
}

// ErrBadTag is returned for packets whose integrity trailer does not match
// their contents: corrupted in flight, truncated, or padded with garbage.
var ErrBadTag = errors.New("proto: packet integrity tag mismatch")

// VerifyPacket checks the integrity trailer of a wire packet and returns
// the body (header + payload) with the trailer stripped. Any bit flip in
// header, payload or trailer fails verification.
func VerifyPacket(pkt []byte) (body []byte, err error) {
	if len(pkt) < HeaderLen+TagLen {
		return nil, ErrShortPacket
	}
	n := len(pkt) - TagLen
	if Tag(pkt[:n]) != binary.BigEndian.Uint32(pkt[n:]) {
		return nil, ErrBadTag
	}
	return pkt[:n], nil
}

// ParsePacket verifies the integrity trailer and decodes the header of a
// wire packet, returning the payload between them. This is the one-stop
// receive parser: nothing it returns has touched the decoder yet, and a
// corrupted packet is rejected with ErrBadTag before any state changes.
func ParsePacket(pkt []byte) (Header, []byte, error) {
	body, err := VerifyPacket(pkt)
	if err != nil {
		return Header{}, nil, err
	}
	return ParseHeader(body)
}

// Flags carried in the packet header.
const (
	// FlagSP marks a synchronization point: receivers may move to a
	// higher subscription level only immediately after an SP (§7.1.1).
	FlagSP uint8 = 1 << iota
	// FlagBurst marks packets sent during a sender burst period, during
	// which each layer temporarily doubles its rate so receivers can
	// probe for spare capacity without explicit join experiments.
	FlagBurst
)

// Header is the per-packet header of the data stream.
type Header struct {
	Index   uint32 // encoding packet index within the session's code
	Serial  uint32 // per-layer monotonically increasing serial number (for loss measurement)
	Group   uint8  // layer / multicast group number
	Flags   uint8  // FlagSP | FlagBurst
	Session uint16 // session identifier, so stray packets are rejected
}

// ErrShortPacket is returned when a buffer cannot hold a header.
var ErrShortPacket = errors.New("proto: packet shorter than header")

// Marshal appends the 12-byte header encoding to dst and returns the
// extended slice (the append-style encoder of the zero-copy send path:
// with capacity available it compiles to direct stores, no staging
// buffer).
func (h Header) Marshal(dst []byte) []byte {
	return append(dst,
		byte(h.Index>>24), byte(h.Index>>16), byte(h.Index>>8), byte(h.Index),
		byte(h.Serial>>24), byte(h.Serial>>16), byte(h.Serial>>8), byte(h.Serial),
		h.Group, h.Flags,
		byte(h.Session>>8), byte(h.Session))
}

// ParseHeader decodes a header from the front of pkt and returns the
// payload that follows it.
func ParseHeader(pkt []byte) (Header, []byte, error) {
	if len(pkt) < HeaderLen {
		return Header{}, nil, ErrShortPacket
	}
	h := Header{
		Index:   binary.BigEndian.Uint32(pkt[0:4]),
		Serial:  binary.BigEndian.Uint32(pkt[4:8]),
		Group:   pkt[8],
		Flags:   pkt[9],
		Session: binary.BigEndian.Uint16(pkt[10:12]),
	}
	return h, pkt[HeaderLen:], nil
}

// SessionInfo is the control answer a server returns to a client: every
// parameter needed to subscribe and decode. The graph seed plays the role
// of the "graph structure agreed upon in advance" (§5.1).
type SessionInfo struct {
	Session    uint16
	Codec      uint8  // CodecTornadoA, ...
	Layers     uint8  // number of multicast groups g
	K          uint32 // source packets
	N          uint32 // encoding packets
	PacketLen  uint32 // payload length (excluding header)
	FileLen    uint64 // original file length in bytes
	Seed       int64  // graph seed
	BaseRate   uint32 // base-layer rate, packets/second
	SPInterval uint32 // rounds between synchronization points on the base layer
	// InterleaveK is the per-block source packet count when Codec is
	// CodecInterleaved (0 otherwise).
	InterleaveK uint32
	// Phase is the carousel round offset this source started transmitting
	// at. Mirrors sharing a seed advertise staggered phases (§8: "each
	// source cycles through the data at a different point") so a receiver
	// harvesting from several of them sees mostly-disjoint prefixes and
	// accumulates few early duplicates. Rateless sessions reuse the field
	// as the sender's arbitrary stream start — informational only, since
	// the unbounded index space makes coordination unnecessary.
	Phase uint32
	// Digest is the SHA-256 of the published file, the one end-to-end proof:
	// a receiver verifies its reassembled download against it, so a
	// completed transfer is provably the published bytes even if every hop
	// in between was hostile. A descriptor without one (all zero) is
	// refused by core.NewReceiver.
	Digest [32]byte
}

// Codec identifiers carried in SessionInfo.
const (
	CodecTornadoA uint8 = iota
	CodecTornadoB
	// Id 2 was whole-file Vandermonde Reed-Solomon, which the paper uses
	// only as a Tables 2-3 baseline. It is reserved: refused like an
	// unassigned id, and never given to another codec.
	_
	CodecCauchy
	CodecInterleaved
	// CodecLT is the rateless Luby Transform code: N is the unbounded
	// sentinel (code.UnboundedN, 2^31-1) and the carousel streams fresh
	// indices forever instead of cycling.
	CodecLT
	// CodecRaptor is the precoded systematic rateless code: like CodecLT
	// the index space is unbounded, but the first K encoding packets ARE
	// the source packets and repair packets are inner-coded over the
	// precode's intermediate symbols. Both rateless codes are named by K,
	// PacketLen and Seed alone: their degree distributions and the precode
	// size are functions of K.
	CodecRaptor
)

// Control message types.
const (
	msgHello      uint8 = 1
	msgSession    uint8 = 2
	msgCatalogReq uint8 = 3
	msgCatalog    uint8 = 4
	msgNak        uint8 = 5
	msgStatsReq   uint8 = 6
	msgStats      uint8 = 7
	controlMag0         = 0xDF // "digital fountain"
	controlMag1         = 0x98 // 1998
)

const sessionInfoLen = 2 + 1 + 2 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 32 // magic, type, session .. phase, digest: 83 bytes

// AppendHello appends a client hello probe to dst. A bare hello asks for
// "the" session — a multi-session service answers with its lowest session
// id (use AppendHelloFor / the catalog for discovery).
func AppendHello(dst []byte) []byte {
	return append(dst, controlMag0, controlMag1, msgHello)
}

// AppendHelloFor appends a hello probe asking for one specific session.
func AppendHelloFor(dst []byte, session uint16) []byte {
	return append(dst, controlMag0, controlMag1, msgHello, byte(session>>8), byte(session))
}

// IsHello reports whether buf is a client hello (with or without a session
// id).
func IsHello(buf []byte) bool {
	return len(buf) >= 3 && buf[0] == controlMag0 && buf[1] == controlMag1 && buf[2] == msgHello
}

// HelloSession extracts the session id of a hello probe. ok is false for
// non-hello messages; a bare hello returns (0, false, true).
func HelloSession(buf []byte) (session uint16, specific, ok bool) {
	if !IsHello(buf) {
		return 0, false, false
	}
	if len(buf) >= 5 {
		return binary.BigEndian.Uint16(buf[3:5]), true, true
	}
	return 0, false, true
}

// AppendNak appends a negative control reply: the service is alive but
// does not carry the requested session (SessionAny-style 0xFFFF means "no
// sessions at all"). Without it, a typo'd session id and an unreachable
// server would both look like a control timeout to the client.
func AppendNak(dst []byte, session uint16) []byte {
	return append(dst, controlMag0, controlMag1, msgNak, byte(session>>8), byte(session))
}

// ParseNak reports whether buf is a negative control reply, and for which
// session id.
func ParseNak(buf []byte) (session uint16, ok bool) {
	if len(buf) < 5 || buf[0] != controlMag0 || buf[1] != controlMag1 || buf[2] != msgNak {
		return 0, false
	}
	return binary.BigEndian.Uint16(buf[3:5]), true
}

// AppendCatalogRequest appends a catalog (session discovery) request.
func AppendCatalogRequest(dst []byte) []byte {
	return append(dst, controlMag0, controlMag1, msgCatalogReq)
}

// IsCatalogRequest reports whether buf is a catalog request.
func IsCatalogRequest(buf []byte) bool {
	return len(buf) >= 3 && buf[0] == controlMag0 && buf[1] == controlMag1 && buf[2] == msgCatalogReq
}

// MaxCatalogEntries is the most sessions one catalog datagram can carry:
// the marshalled message must stay under the 65,507-byte UDP payload
// limit, or the control socket's reply would fail with EMSGSIZE and
// discovery would silently break.
const MaxCatalogEntries = (65000 - 5) / sessionInfoLen

// MaxPacketLen is the largest payload length a session may have: a wire
// packet (header + payload + integrity tag) must fit the same 65,507-byte
// UDP payload limit, and payload lengths are multiples of 16
// (core.PadPacketLen). A descriptor stating more names packets no sender
// could have put on a socket — and would size receive buffers by a
// datagram's say-so.
const MaxPacketLen = (65507 - HeaderLen - TagLen) / 16 * 16 // 65,488

// AppendCatalog appends the announce/catalog message: the descriptors of
// the sessions a service currently carries, so one control round-trip
// discovers everything needed to subscribe and decode any of them. A
// catalog beyond MaxCatalogEntries is truncated to the first entries
// (callers list sessions lowest-id first, so the surviving prefix is
// deterministic); clients needing the rest ask for sessions by id. Each
// entry is encoded in place — no per-entry allocation.
func AppendCatalog(dst []byte, infos []SessionInfo) []byte {
	if len(infos) > MaxCatalogEntries {
		infos = infos[:MaxCatalogEntries]
	}
	dst = append(dst, controlMag0, controlMag1, msgCatalog,
		byte(len(infos)>>8), byte(len(infos)))
	for _, s := range infos {
		dst = s.Append(dst)
	}
	return dst
}

// ParseCatalog decodes a catalog message.
func ParseCatalog(buf []byte) ([]SessionInfo, error) {
	if len(buf) < 5 || buf[0] != controlMag0 || buf[1] != controlMag1 || buf[2] != msgCatalog {
		return nil, errors.New("proto: not a catalog message")
	}
	count := int(binary.BigEndian.Uint16(buf[3:5]))
	rest := buf[5:]
	if len(rest) != count*sessionInfoLen {
		return nil, fmt.Errorf("proto: catalog of %d entries needs %d bytes, has %d",
			count, count*sessionInfoLen, len(rest))
	}
	infos := make([]SessionInfo, count)
	for i := 0; i < count; i++ {
		s, err := ParseSessionInfo(rest[i*sessionInfoLen : (i+1)*sessionInfoLen])
		if err != nil {
			return nil, fmt.Errorf("proto: catalog entry %d: %w", i, err)
		}
		infos[i] = s
	}
	return infos, nil
}

// Append appends the session info control message encoding to dst.
func (s SessionInfo) Append(dst []byte) []byte {
	be := binary.BigEndian
	dst = append(dst, controlMag0, controlMag1, msgSession)
	dst = be.AppendUint16(dst, s.Session)
	dst = append(dst, s.Codec, s.Layers)
	dst = be.AppendUint32(dst, s.K)
	dst = be.AppendUint32(dst, s.N)
	dst = be.AppendUint32(dst, s.PacketLen)
	dst = be.AppendUint64(dst, s.FileLen)
	dst = be.AppendUint64(dst, uint64(s.Seed))
	dst = be.AppendUint32(dst, s.BaseRate)
	dst = be.AppendUint32(dst, s.SPInterval)
	dst = be.AppendUint32(dst, s.InterleaveK)
	dst = be.AppendUint32(dst, s.Phase)
	return append(dst, s.Digest[:]...)
}

// ParseSessionInfo decodes a session info message. Any length but the one
// the layout has is refused: a descriptor in another layout must not parse
// with its words shifted into the wrong fields.
func ParseSessionInfo(buf []byte) (SessionInfo, error) {
	if len(buf) != sessionInfoLen {
		return SessionInfo{}, fmt.Errorf("proto: session info is %d bytes, want %d", len(buf), sessionInfoLen)
	}
	if buf[0] != controlMag0 || buf[1] != controlMag1 || buf[2] != msgSession {
		return SessionInfo{}, errors.New("proto: not a session info message")
	}
	be := binary.BigEndian
	return SessionInfo{
		Session:     be.Uint16(buf[3:5]),
		Codec:       buf[5],
		Layers:      buf[6],
		K:           be.Uint32(buf[7:11]),
		N:           be.Uint32(buf[11:15]),
		PacketLen:   be.Uint32(buf[15:19]),
		FileLen:     be.Uint64(buf[19:27]),
		Seed:        int64(be.Uint64(buf[27:35])),
		BaseRate:    be.Uint32(buf[35:39]),
		SPInterval:  be.Uint32(buf[39:43]),
		InterleaveK: be.Uint32(buf[43:47]),
		Phase:       be.Uint32(buf[47:51]),
		Digest:      [32]byte(buf[51:83]),
	}, nil
}

// StatsSnapshot is the control-plane observability answer: a fixed-length
// snapshot of a server's operational counters, so a client (or an
// operator's probe) can read server health over the same unicast control
// socket it uses for session discovery — no HTTP endpoint required.
// Counter semantics match service.Stats; transport fields are zero when
// the transport keeps no such count (the in-process Bus).
type StatsSnapshot struct {
	Sessions      uint32
	Shards        uint32
	PacketsSent   uint64
	BytesSent     uint64
	SendErrors    uint64
	RoundsEmitted uint64
	CatchupRounds uint64
	DebtDropped   uint64
	Draining      uint8 // 1 once the server began draining
	CacheUsed     uint64
	CachePeak     uint64
	CacheLookups  uint64
	CacheHits     uint64
	CacheMisses   uint64
	Subscribers   uint32 // transport subscriber addresses
	TxPackets     uint64 // transport datagram writes (per destination)
	TxBytes       uint64
}

// statsLen is the fixed encoding length of a stats message:
// magic+type, two uint32 counts, six uint64 service counters, the drain
// flag, five uint64 cache counters, and the three transport fields.
const statsLen = 3 + 4 + 4 + 6*8 + 1 + 5*8 + 4 + 8 + 8

// AppendStatsRequest appends a stats request probe to dst.
func AppendStatsRequest(dst []byte) []byte {
	return append(dst, controlMag0, controlMag1, msgStatsReq)
}

// IsStatsRequest reports whether buf is a stats request.
func IsStatsRequest(buf []byte) bool {
	return len(buf) >= 3 && buf[0] == controlMag0 && buf[1] == controlMag1 && buf[2] == msgStatsReq
}

// Append appends the stats message encoding to dst.
func (s StatsSnapshot) Append(dst []byte) []byte {
	dst = append(dst, controlMag0, controlMag1, msgStats)
	put32 := func(v uint32) { dst = binary.BigEndian.AppendUint32(dst, v) }
	put64 := func(v uint64) { dst = binary.BigEndian.AppendUint64(dst, v) }
	put32(s.Sessions)
	put32(s.Shards)
	put64(s.PacketsSent)
	put64(s.BytesSent)
	put64(s.SendErrors)
	put64(s.RoundsEmitted)
	put64(s.CatchupRounds)
	put64(s.DebtDropped)
	dst = append(dst, s.Draining)
	put64(s.CacheUsed)
	put64(s.CachePeak)
	put64(s.CacheLookups)
	put64(s.CacheHits)
	put64(s.CacheMisses)
	put32(s.Subscribers)
	put64(s.TxPackets)
	put64(s.TxBytes)
	return dst
}

// ParseStats decodes a stats message.
func ParseStats(buf []byte) (StatsSnapshot, error) {
	if len(buf) < statsLen {
		return StatsSnapshot{}, fmt.Errorf("proto: stats message too short (%d bytes)", len(buf))
	}
	if buf[0] != controlMag0 || buf[1] != controlMag1 || buf[2] != msgStats {
		return StatsSnapshot{}, errors.New("proto: not a stats message")
	}
	i := 3
	get32 := func() uint32 {
		v := binary.BigEndian.Uint32(buf[i : i+4])
		i += 4
		return v
	}
	get64 := func() uint64 {
		v := binary.BigEndian.Uint64(buf[i : i+8])
		i += 8
		return v
	}
	var s StatsSnapshot
	s.Sessions = get32()
	s.Shards = get32()
	s.PacketsSent = get64()
	s.BytesSent = get64()
	s.SendErrors = get64()
	s.RoundsEmitted = get64()
	s.CatchupRounds = get64()
	s.DebtDropped = get64()
	s.Draining = buf[i]
	i++
	s.CacheUsed = get64()
	s.CachePeak = get64()
	s.CacheLookups = get64()
	s.CacheHits = get64()
	s.CacheMisses = get64()
	s.Subscribers = get32()
	s.TxPackets = get64()
	s.TxBytes = get64()
	return s, nil
}
