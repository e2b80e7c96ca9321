// Package core implements the digital fountain itself (§3-§4): a Session
// wraps a file encoded once with an erasure codec and metered out as an
// endless carousel of encoding packets, and a Receiver drinks from that
// stream — in any order, with any losses — until its decoder reports that
// the source is reconstructable.
//
// The server side iterates the carousel either as a seeded random
// permutation on a single group (§6 simulations) or via the layered
// reverse-binary schedule of §7.1.2 across g groups; packets carry the
// 12-byte header of §7.3 including SP and burst markers for the layered
// congestion-control scheme.
package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/code"
	"repro/internal/interleave"
	"repro/internal/lt"
	"repro/internal/proto"
	"repro/internal/raptor"
	"repro/internal/rs"
	"repro/internal/sched"
	"repro/internal/tornado"
)

// Config selects the code and framing of a session.
type Config struct {
	Codec      uint8 // proto.CodecTornadoA, ...
	PacketLen  int   // payload bytes per packet (header excluded)
	Stretch    int   // n/k, the paper uses 2
	Layers     int   // multicast groups g (1 = single-layer protocol)
	Seed       int64 // graph/permutation seed
	SPInterval int   // rounds between synchronization points (0 = 16)
	Session    uint16
	// InterleaveBlockK is the per-block k when Codec is CodecInterleaved.
	InterleaveBlockK int
	// LazyBlock is the number of encoding packets per lazily encoded cache
	// block when the session is built with NewSessionCached (0 = 64). It
	// has no effect on eager sessions.
	LazyBlock int
	// LTC and LTDelta tune the robust soliton degree distribution when
	// Codec is CodecLT (<= 0 selects the lt package defaults). They are
	// quantized to millionths for the wire, and the session builds its
	// codec from the quantized values so sender and receivers derive the
	// identical distribution. Stretch is ignored for CodecLT — a rateless
	// code has no stretch factor. For CodecRaptor they tune the weakened
	// inner distribution instead (<= 0 selects the raptor defaults).
	LTC     float64
	LTDelta float64
	// RaptorChecks and RaptorMaxD pin a CodecRaptor session's precode
	// check count and inner-code degree truncation (<= 0 selects the
	// raptor package's k-dependent defaults). The resolved values travel
	// in the descriptor, so receivers rebuild the identical code without
	// re-deriving the defaults. Stretch is ignored, as for CodecLT.
	RaptorChecks int
	RaptorMaxD   int
}

// DefaultConfig mirrors the prototype in §7.3: Tornado A, 500-byte
// payloads (+12-byte header = 512), stretch factor 2, 4 layers.
func DefaultConfig() Config {
	return Config{
		Codec:     proto.CodecTornadoA,
		PacketLen: 500,
		Stretch:   2,
		Layers:    4,
		Seed:      1998,
		Session:   0xDF98,
	}
}

// Session is an encoded file ready for fountain transmission. It is
// immutable after creation and safe for concurrent readers.
//
// A session is either eager — the full stretch-factor-n encoding is
// materialized at construction, as the one-session prototype did — or lazy:
// only the k source packets are resident, and repair blocks are encoded on
// first touch behind a shared bounded BlockCache (NewSessionCached). Lazy
// sessions require the codec to implement code.RowEncoder; codecs that
// cannot (Tornado's cascade checks are computed jointly) fall back to eager
// encoding.
type Session struct {
	cfg      Config
	codec    code.Codec
	enc      [][]byte // full encoding; nil when lazy
	fileLen  int
	fileHash uint64
	digest   [32]byte // SHA-256 of the file, advertised for end-to-end verification
	sched    *sched.Schedule
	perm     []int // randomized carousel order for single-layer mode (nil when rateless)

	// rateless marks sessions whose codec has an unbounded index space
	// (code.Rateless). Their carousels stream monotonically increasing
	// fresh indices instead of cycling a permutation, and payloads are
	// generated per emission — each index is transmitted at most once, so
	// nothing is worth caching.
	rateless bool

	// Lazy-encoding state (nil/zero for eager sessions). src passed
	// code.CheckSrc once, at construction: rows.EncodeInto relies on it.
	src     [][]byte // the k source packets, aliasing one buffer
	rows    code.RowEncoder
	cache   *BlockCache
	nBlocks int

	// filled marks blocks that have been encoded in full once. After a
	// block is evicted, re-misses encode only the requested packet: under
	// cache pressure the carousel's randomized order gives blocks no
	// locality, and re-encoding 64 packets to emit one would amplify
	// encode work ~64x. With this bound, total lazy encode work is at most
	// one full materialization plus one packet per post-eviction miss.
	fillMu sync.Mutex
	filled []bool
}

// buildCodec constructs the codec named by cfg for k source packets.
// Packet lengths are padded to the codec's alignment requirement.
func buildCodec(cfg Config, k int) (code.Codec, error) {
	n := k * cfg.Stretch
	switch cfg.Codec {
	case proto.CodecTornadoA:
		return tornado.New(tornado.A(), k, n, cfg.PacketLen, cfg.Seed)
	case proto.CodecTornadoB:
		return tornado.New(tornado.B(), k, n, cfg.PacketLen, cfg.Seed)
	case proto.CodecVandermonde:
		return rs.NewVandermonde(k, n, cfg.PacketLen)
	case proto.CodecCauchy:
		return rs.NewCauchy(k, n, cfg.PacketLen)
	case proto.CodecInterleaved:
		return interleave.NewForFile(k, interleaveBlockK(cfg.InterleaveBlockK), cfg.Stretch, cfg.PacketLen)
	case proto.CodecLT:
		cMicro, dMicro := ltWireParams(cfg)
		return lt.New(k, cfg.PacketLen, cfg.Seed, float64(cMicro)/1e6, float64(dMicro)/1e6)
	case proto.CodecRaptor:
		cMicro, dMicro := raptorWireParams(cfg)
		return raptor.New(k, cfg.PacketLen, cfg.Seed, float64(cMicro)/1e6, float64(dMicro)/1e6,
			cfg.RaptorChecks, cfg.RaptorMaxD)
	default:
		return nil, fmt.Errorf("core: unknown codec %d", cfg.Codec)
	}
}

// interleaveBlockK resolves a configured or advertised interleave block
// size: unset means 50 source packets per block.
func interleaveBlockK(bk int) int {
	if bk <= 0 {
		return 50
	}
	return bk
}

// codecs is the one table of wire codec ids: the name the CLIs take and
// print, and whether the id names a rateless code. buildCodec's switch
// constructs them.
var codecs = [...]struct {
	name     string
	rateless bool
}{
	proto.CodecTornadoA:    {name: "tornado-a"},
	proto.CodecTornadoB:    {name: "tornado-b"},
	proto.CodecVandermonde: {name: "vandermonde"},
	proto.CodecCauchy:      {name: "cauchy"},
	proto.CodecInterleaved: {name: "interleaved"},
	proto.CodecLT:          {name: "lt", rateless: true},
	proto.CodecRaptor:      {name: "raptor", rateless: true},
}

// CodecNames lists the codec names in id order.
func CodecNames() []string {
	names := make([]string, len(codecs))
	for id, c := range codecs {
		names[id] = c.name
	}
	return names
}

// CodecName returns the name of a wire codec id, or "codec-<id>" for an id
// off the wire that this build does not know.
func CodecName(id uint8) string {
	if int(id) < len(codecs) {
		return codecs[id].name
	}
	return fmt.Sprintf("codec-%d", id)
}

// CodecByName returns the wire id of a codec name.
func CodecByName(name string) (uint8, error) {
	for id, c := range codecs {
		if c.name == name {
			return uint8(id), nil
		}
	}
	return 0, fmt.Errorf("core: unknown codec %q", name)
}

// ratelessID reports whether a wire codec id names a rateless code, whose
// descriptor carries the unbounded-N sentinel and no stretch factor.
func ratelessID(codec uint8) bool {
	return int(codec) < len(codecs) && codecs[codec].rateless
}

// maxStretch is the largest stretch factor n/k a fixed-rate session may
// have. Every session in the tree uses 2 (the paper's choice); the ceiling
// exists so that a descriptor cannot buy an encoding, and the decoder
// state sized by it, many times the file it advertises. NewSessionCached
// refuses what NewReceiver would.
const maxStretch = 16

// ltWireParams resolves and quantizes a config's robust-soliton parameters
// to the wire's millionth units. Both the sender's session and the
// receiver's reconstructed codec pass through this quantization, so the
// degree distributions match bit for bit.
func ltWireParams(cfg Config) (cMicro, deltaMicro uint32) {
	c, d := cfg.LTC, cfg.LTDelta
	if c <= 0 {
		c = lt.DefaultC
	}
	if d <= 0 || d >= 1 {
		d = lt.DefaultDelta
	}
	return uint32(math.Round(c * 1e6)), uint32(math.Round(d * 1e6))
}

// raptorWireParams is ltWireParams with the raptor package's (c, δ)
// defaults — the weakened inner distribution runs a smaller spike than a
// plain LT code.
func raptorWireParams(cfg Config) (cMicro, deltaMicro uint32) {
	c, d := cfg.LTC, cfg.LTDelta
	if c <= 0 {
		c = raptor.DefaultC
	}
	if d <= 0 || d >= 1 {
		d = raptor.DefaultDelta
	}
	return uint32(math.Round(c * 1e6)), uint32(math.Round(d * 1e6))
}

// PadPacketLen rounds a payload length up to the alignment the codec
// needs (16 bytes covers the Cauchy bit-matrix sub-blocking and the
// 16-bit symbols of Vandermonde).
func PadPacketLen(pl int) int {
	if pl%16 == 0 {
		return pl
	}
	return pl + 16 - pl%16
}

// NewSession encodes data for fountain distribution, materializing the
// full encoding eagerly (the memory/latency profile of the one-session
// prototype). Servers holding many files should use NewSessionCached.
func NewSession(data []byte, cfg Config) (*Session, error) {
	return NewSessionCached(data, cfg, nil)
}

// NewSessionCached builds a session whose repair packets are encoded
// lazily, per block, on first carousel touch, with the encoded blocks held
// in the given shared BlockCache. Pass the same cache to every session of a
// service so the total repair-packet memory stays under one budget.
//
// A nil cache, or a codec that does not implement code.RowEncoder,
// degrades to eager encoding (full materialization at construction).
func NewSessionCached(data []byte, cfg Config, cache *BlockCache) (*Session, error) {
	if (cfg.Stretch < 2 || cfg.Stretch > maxStretch) && !ratelessID(cfg.Codec) {
		return nil, fmt.Errorf("core: stretch %d outside 2..%d", cfg.Stretch, maxStretch)
	}
	if cfg.Layers < 1 || cfg.Layers > 16 {
		return nil, fmt.Errorf("core: layer count %d out of range", cfg.Layers)
	}
	cfg.PacketLen = PadPacketLen(cfg.PacketLen)
	if cfg.SPInterval <= 0 {
		cfg.SPInterval = 16
	}
	if cfg.LazyBlock <= 0 {
		cfg.LazyBlock = 64
	}
	k := code.PacketsFor(len(data), cfg.PacketLen)
	if k == 0 {
		k = 1
	}
	codec, err := buildCodec(cfg, k)
	if err != nil {
		return nil, err
	}
	// Interleaved codecs round k up to a whole number of blocks; split
	// with the codec's actual k (the tail packets are zero padding).
	src, err := code.Split(data, codec.K(), cfg.PacketLen)
	if err != nil {
		return nil, err
	}
	sc, err := sched.New(cfg.Layers)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:      cfg,
		codec:    codec,
		fileLen:  len(data),
		fileHash: proto.FNV64a(data),
		digest:   sha256.Sum256(data),
		sched:    sc,
	}
	s.rateless = code.IsRateless(codec) // implies a code.RowEncoder
	if rows, ok := codec.(code.RowEncoder); ok && (s.rateless || cache != nil) {
		// The one validation of the session-constant source block: every
		// later EncodeInto (per emission, per cache fill) relies on it.
		if err := code.CheckSrc(src, codec.K(), cfg.PacketLen); err != nil {
			return nil, err
		}
		s.src, s.rows = src, rows
	}
	if s.rateless {
		return s, nil // only the k source packets are resident, ever
	}
	s.perm = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)).Perm(codec.N())
	if s.rows != nil {
		s.cache = cache
		s.nBlocks = (codec.N() + cfg.LazyBlock - 1) / cfg.LazyBlock
		s.filled = make([]bool, s.nBlocks)
		return s, nil
	}
	enc, err := codec.Encode(src)
	if err != nil {
		return nil, err
	}
	s.enc = enc
	return s, nil
}

// Lazy reports whether the session encodes repair blocks on demand.
func (s *Session) Lazy() bool { return s.enc == nil }

// Rateless reports whether the session's codec has an unbounded index
// space: its carousel streams fresh monotone indices instead of cycling.
func (s *Session) Rateless() bool { return s.rateless }

// Payload returns the payload bytes of encoding packet idx. Eager sessions
// index the materialized encoding; lazy sessions consult the shared block
// cache, encoding on a miss — the containing block on its first-ever
// touch, just the single packet after an eviction. The returned slice is
// shared and must not be modified.
func (s *Session) Payload(idx int) []byte {
	if s.enc != nil {
		return s.enc[idx]
	}
	// Source packets are always resident: their sends touch neither an
	// encoder nor the shared cache (the only cross-session lock on the
	// data path).
	if f := s.rows.SourceOf(idx); f >= 0 {
		return s.src[f]
	}
	if s.rateless {
		// Each index of the monotone stream is emitted at most once;
		// generate and forget — no cache, no cross-session lock traffic.
		return s.appendCoded(nil, idx)
	}
	block := idx / s.cfg.LazyBlock
	lo := block * s.cfg.LazyBlock
	// Single-packet refill entries live in the key space above the block
	// ids; one lookup probes both so the hit/miss counters see one event.
	if pkts, full := s.cache.get2(s, block, s.nBlocks+idx); pkts != nil {
		if full {
			return pkts[idx-lo]
		}
		return pkts[0]
	}
	if s.firstFillDone(block) {
		return s.cacheFill(s.nBlocks+idx, idx, idx+1)[0]
	}
	return s.cacheFill(block, lo, min(lo+s.cfg.LazyBlock, s.codec.N()))[idx-lo]
}

// firstFillDone reports whether the block was already encoded in full
// once, marking it if not (the caller then performs that first fill).
func (s *Session) firstFillDone(block int) bool {
	s.fillMu.Lock()
	defer s.fillMu.Unlock()
	if s.filled[block] {
		return true
	}
	s.filled[block] = true
	return false
}

// appendCoded appends coded packet idx to dst, encoding it in place.
func (s *Session) appendCoded(dst []byte, idx int) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, s.cfg.PacketLen)...)
	s.rows.EncodeInto(dst[at:], s.src, idx)
	return dst
}

// cacheFill encodes packets [lo, hi) and inserts the run under key. Source
// entries alias the file buffer; only the coded ones are charged.
func (s *Session) cacheFill(key, lo, hi int) [][]byte {
	pkts := make([][]byte, hi-lo)
	var charged int64
	for i := range pkts {
		if f := s.rows.SourceOf(lo + i); f >= 0 {
			pkts[i] = s.src[f]
			continue
		}
		pkts[i] = s.appendCoded(nil, lo+i)
		charged += int64(len(pkts[i]))
	}
	return s.cache.put(s, key, pkts, charged)
}

// Codec exposes the session's erasure codec.
func (s *Session) Codec() code.Codec { return s.codec }

// Config returns the session configuration (with padded packet length).
func (s *Session) Config() Config { return s.cfg }

// Info returns the control-channel descriptor of the session.
func (s *Session) Info() proto.SessionInfo {
	info := proto.SessionInfo{
		Session:    s.cfg.Session,
		Codec:      s.cfg.Codec,
		Layers:     uint8(s.cfg.Layers),
		K:          uint32(s.codec.K()),
		N:          uint32(s.codec.N()),
		PacketLen:  uint32(s.cfg.PacketLen),
		FileLen:    uint64(s.fileLen),
		Seed:       s.cfg.Seed,
		SPInterval: uint32(s.cfg.SPInterval),
		FileHash:   s.fileHash,
		Digest:     s.digest,
	}
	if s.cfg.Codec == proto.CodecInterleaved {
		info.InterleaveK = uint32(interleaveBlockK(s.cfg.InterleaveBlockK))
	}
	if s.cfg.Codec == proto.CodecLT {
		info.LTCMicro, info.LTDeltaMicro = ltWireParams(s.cfg)
	}
	if s.cfg.Codec == proto.CodecRaptor {
		info.LTCMicro, info.LTDeltaMicro = raptorWireParams(s.cfg)
		// Publish the resolved precode geometry, not the config's zeros:
		// receivers must not re-derive defaults that could drift.
		rc := s.codec.(*raptor.Codec)
		info.RaptorS = uint32(rc.Checks())
		info.RaptorMaxD = uint32(rc.MaxDegree())
	}
	return info
}

// Packet returns the wire form (header + payload) of encoding packet idx
// for the given layer/serial/flags, in a freshly allocated buffer.
func (s *Session) Packet(idx int, layer uint8, serial uint32, flags uint8) []byte {
	return s.AppendPacket(make([]byte, 0, s.WireLen()), idx, layer, serial, flags)
}

// AppendPacket appends the wire form (header + payload + integrity
// trailer) of encoding packet idx to dst and returns the extended slice —
// the zero-copy form of Packet for senders that build packets in pooled
// buffers. With cap(dst) >= WireLen() and an eagerly encoded, cache-resident
// or rateless payload, the call allocates nothing: the CRC32C trailer is a
// hardware checksum plus four appended bytes.
func (s *Session) AppendPacket(dst []byte, idx int, layer uint8, serial uint32, flags uint8) []byte {
	h := proto.Header{
		Index:   uint32(idx),
		Serial:  serial,
		Group:   layer,
		Flags:   flags,
		Session: s.cfg.Session,
	}
	base := len(dst)
	dst = h.Marshal(dst)
	if s.rateless && s.rows.SourceOf(idx) < 0 {
		dst = s.appendCoded(dst, idx) // emitted once: no intermediate payload
	} else {
		dst = append(dst, s.Payload(idx)...)
	}
	sum := proto.Tag(dst[base:])
	return append(dst, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
}

// WireLen returns the on-the-wire size of every packet of the session:
// the 12-byte header plus the (padded) payload length plus the 4-byte
// integrity trailer. Senders size their packet buffers with it.
func (s *Session) WireLen() int { return proto.HeaderLen + s.cfg.PacketLen + proto.TagLen }

// CarouselIndices returns the encoding indices transmitted on `layer`
// during `round`. In single-layer mode this walks the seeded random
// permutation (the randomized carousel of §6); in layered mode it follows
// the reverse-binary schedule (§7.1.2), which guarantees the One Level
// Property.
//
// Rateless sessions never cycle: round r emits the next fresh slice of the
// unbounded index stream — one index per round on a single layer, or
// 2^(g-1) consecutive indices per round split across g layers with the
// fixed-rate schedule's per-layer slot counts (1, 1, 2, 4, ...). Every
// index is emitted at most once per stream, so the One Level Property
// holds trivially, and mirrors starting at different rounds draw from
// disjoint index regions without any cycle arithmetic.
func (s *Session) CarouselIndices(layer, round int) []int {
	return s.AppendCarouselIndices(nil, layer, round)
}

// AppendCarouselIndices is the allocation-free form of CarouselIndices:
// the indices are appended to dst, so a carousel can walk the schedule
// through one reused scratch slice.
func (s *Session) AppendCarouselIndices(dst []int, layer, round int) []int {
	if s.rateless {
		if s.cfg.Layers == 1 {
			return append(dst, ratelessIndex(uint64(round)))
		}
		per := s.sched.SlotsPerRound(layer)
		off := 0
		if layer > 0 {
			// Slots below this layer: the schedule's cumulative count.
			off = s.sched.CumulativeSlotsPerRound(layer - 1)
		}
		// The slot counts sum to the block size 2^(g-1) = indices per
		// round.
		base := uint64(round)*uint64(s.sched.BlockSize()) + uint64(off)
		for i := 0; i < per; i++ {
			dst = append(dst, ratelessIndex(base+uint64(i)))
		}
		return dst
	}
	n := s.codec.N()
	if s.cfg.Layers == 1 {
		i := round % n
		return append(dst, s.perm[i])
	}
	return s.sched.AppendPacketIndices(dst, layer, round, n)
}

// ratelessIndex folds an unbounded stream position into the valid index
// range [0, code.UnboundedN): a stream that outlives the space wraps onto
// long-consumed indices (harmless duplicates eons after their first
// emission) instead of ever emitting the out-of-range sentinel itself,
// which every bounds check in the stack rightly rejects.
func ratelessIndex(pos uint64) int {
	return int(pos % code.UnboundedN)
}

// IsSP reports whether the given round carries a synchronization point
// marker on this layer. SPs are more frequent on lower layers ("the rate
// at which SPs are sent is inversely proportional to the bandwidth").
func (s *Session) IsSP(layer, round int) bool {
	interval := s.cfg.SPInterval << uint(layer)
	return round%interval == 0
}

// BurstRound reports whether the given round is part of a sender burst
// (one round of doubled rate preceding each SP, §7.1.1).
func (s *Session) BurstRound(layer, round int) bool {
	interval := s.cfg.SPInterval << uint(layer)
	return round%interval == interval-1
}

// Receiver consumes fountain packets and reconstructs the file, keeping
// the efficiency accounting of §7.3: η = k/total, ηc = k/distinct,
// ηd = distinct/total.
type Receiver struct {
	info    proto.SessionInfo
	dec     code.Decoder
	total   int // packets accepted (right session, parseable)
	done    bool
	fileBuf []byte
}

// NewReceiver builds a receiver from the control descriptor. The receiver
// reconstructs the codec locally from the descriptor's parameters — no
// further server state is needed (the "advance agreement" of §5.1).
func NewReceiver(info proto.SessionInfo) (*Receiver, error) {
	// The descriptor arrives off a socket: check it before dividing by K,
	// and tie K to the file before building a codec, so decoder memory is
	// bounded by the file the user asked for, not by a 107-byte datagram.
	if info.K == 0 {
		return nil, fmt.Errorf("core: descriptor has k=0")
	}
	if ratelessID(info.Codec) {
		if info.N != code.UnboundedN {
			return nil, fmt.Errorf("core: rateless descriptor has n=%d, want %d", info.N, code.UnboundedN)
		}
	} else if info.N < info.K || info.N%info.K != 0 || info.N/info.K > maxStretch {
		return nil, fmt.Errorf("core: descriptor has n=%d for k=%d: not a whole stretch factor in 1..%d",
			info.N, info.K, maxStretch)
	}
	if info.PacketLen == 0 {
		return nil, fmt.Errorf("core: descriptor has packet length 0")
	}
	if info.Layers < 1 || info.Layers > 16 {
		return nil, fmt.Errorf("core: descriptor has layer count %d out of range", info.Layers)
	}
	pl := uint64(info.PacketLen)
	if info.FileLen > uint64(info.K)*pl {
		return nil, fmt.Errorf("core: descriptor has k=%d packets of %d bytes for a %d-byte file",
			info.K, info.PacketLen, info.FileLen)
	}
	// The K NewSessionCached derives from the file: one packet at least,
	// rounded up to whole blocks by the interleaved code.
	maxK := info.FileLen / pl
	if info.FileLen%pl != 0 || maxK == 0 {
		maxK++
	}
	if info.Codec == proto.CodecInterleaved {
		bk := uint64(interleaveBlockK(int(info.InterleaveK)))
		if bk > maxK {
			bk = maxK
		}
		maxK = (maxK + bk - 1) / bk * bk
	}
	if uint64(info.K) > maxK {
		return nil, fmt.Errorf("core: descriptor has k=%d, a %d-byte file needs at most %d",
			info.K, info.FileLen, maxK)
	}
	cfg := Config{
		Codec:            info.Codec,
		PacketLen:        int(info.PacketLen),
		Stretch:          int(info.N / info.K),
		Layers:           int(info.Layers),
		Seed:             info.Seed,
		Session:          info.Session,
		InterleaveBlockK: int(info.InterleaveK),
		LTC:              float64(info.LTCMicro) / 1e6,
		LTDelta:          float64(info.LTDeltaMicro) / 1e6,
		RaptorChecks:     int(info.RaptorS),
		RaptorMaxD:       int(info.RaptorMaxD),
	}
	codec, err := buildCodec(cfg, int(info.K))
	if err != nil {
		return nil, err
	}
	if codec.N() != int(info.N) {
		return nil, fmt.Errorf("core: codec produced n=%d, descriptor says %d", codec.N(), info.N)
	}
	return &Receiver{info: info, dec: codec.NewDecoder()}, nil
}

// HandleRaw ingests one wire packet (header + payload + integrity
// trailer). Corrupted packets (proto.ErrBadTag), packets from other
// sessions, and malformed headers are rejected with an error before any
// byte reaches the decoder; duplicates are counted but ignored. It reports
// whether the file is now decodable.
func (r *Receiver) HandleRaw(pkt []byte) (bool, error) {
	h, payload, err := proto.ParsePacket(pkt)
	if err != nil {
		return r.done, err
	}
	if h.Session != r.info.Session {
		return r.done, fmt.Errorf("core: packet from session %#x, want %#x", h.Session, r.info.Session)
	}
	return r.Handle(int(h.Index), payload)
}

// Handle ingests a packet already stripped to (index, payload).
func (r *Receiver) Handle(idx int, payload []byte) (bool, error) {
	if r.done {
		return true, nil
	}
	r.total++
	done, err := r.dec.Add(idx, payload)
	if err != nil {
		r.total--
		return r.done, err
	}
	if done {
		r.done = true
	}
	return r.done, nil
}

// Done reports whether the file can be reconstructed.
func (r *Receiver) Done() bool { return r.done }

// File reassembles and verifies the file.
func (r *Receiver) File() ([]byte, error) {
	if r.fileBuf != nil {
		return r.fileBuf, nil
	}
	src, err := r.dec.Source()
	if err != nil {
		return nil, err
	}
	data, err := code.Join(src, int(r.info.FileLen))
	if err != nil {
		return nil, err
	}
	if got := proto.FNV64a(data); got != r.info.FileHash {
		return nil, fmt.Errorf("core: file hash mismatch: got %#x want %#x", got, r.info.FileHash)
	}
	// End-to-end proof: the reassembled bytes must match the catalog's
	// SHA-256 digest. A zero digest means the descriptor did not advertise
	// one (legacy or hand-built descriptors) and only the FNV check applies.
	if r.info.Digest != ([32]byte{}) {
		if got := sha256.Sum256(data); got != r.info.Digest {
			return nil, fmt.Errorf("core: file digest mismatch: got %x want %x", got, r.info.Digest)
		}
	}
	r.fileBuf = data
	return data, nil
}

// Released returns the decoder's symbol-release XOR count, or -1 when the
// decoder does not count releases (code.ReleaseCounter). A systematic
// rateless session on a lossless channel reports 0: every packet was
// stored verbatim, no decode work happened at all.
func (r *Receiver) Released() int {
	if rc, ok := r.dec.(code.ReleaseCounter); ok {
		return rc.Released()
	}
	return -1
}

// Stats returns (total received, distinct, k) for efficiency computation.
func (r *Receiver) Stats() (total, distinct, k int) {
	return r.total, r.dec.Received(), int(r.info.K)
}

// Efficiency returns the reception efficiency triple of §7.3.
func (r *Receiver) Efficiency() (eta, etaC, etaD float64) {
	total, distinct, k := r.Stats()
	if total == 0 || distinct == 0 {
		return 0, 0, 0
	}
	eta = float64(k) / float64(total)
	etaC = float64(k) / float64(distinct)
	etaD = float64(distinct) / float64(total)
	return
}
