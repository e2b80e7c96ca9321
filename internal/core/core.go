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
//
// A session keeps the rows that need no encoding in one table (cache.go):
// complete when the encoding was materialized at construction, otherwise
// whatever coded rows, kept at their first touch, fit the byte budget
// shared by every session of a service (source rows are the file buffer).
// An absent row is encoded straight into the packet being built.
package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/code"
	"repro/internal/proto"
	"repro/internal/sched"
)

// Config selects the code and framing of a session.
type Config struct {
	Codec      uint8 // wire codec id (CodecByName); zero is Tornado A
	PacketLen  int   // payload bytes per packet (header excluded)
	Stretch    int   // n/k, the paper uses 2; the rateless codes have none and ignore it
	Layers     int   // multicast groups g (1 = single-layer protocol)
	Seed       int64 // graph/permutation seed
	SPInterval int   // rounds between synchronization points (0 = 16)
	Session    uint16
	// InterleaveBlockK is the per-block k of the interleaved codec (0 = 50).
	InterleaveBlockK int
}

// DefaultConfig mirrors the prototype in §7.3: Tornado A, 500-byte
// payloads (+12-byte header = 512), stretch factor 2, 4 layers.
func DefaultConfig() Config {
	return Config{
		PacketLen: 500,
		Stretch:   2,
		Layers:    4,
		Seed:      1998,
		Session:   0xDF98,
	}
}

// Session is an encoded file ready for fountain transmission. It is
// immutable after creation, residency of its rows aside, and safe for
// concurrent readers.
//
// A session is either eager — the full stretch-factor-n encoding is
// materialized at construction, as the one-session prototype did — or lazy:
// only the k source packets are resident at first, and a coded packet is
// encoded when it is touched and not resident (NewSessionCached). Every
// codec can be lazy: it is a code.RowEncoder.
type Session struct {
	cfg   Config
	codec code.Codec
	info  proto.SessionInfo // the descriptor the codec was built from
	sched *sched.Schedule
	perm  []int // randomized carousel order for single-layer mode (nil when rateless)

	// rateless marks sessions whose codec has an unbounded index space
	// (code.Rateless). Their carousels stream monotonically increasing
	// fresh indices instead of cycling a permutation: each index is
	// transmitted at most once, so no coded row is worth keeping and the
	// table stays empty.
	rateless bool

	// table holds the rows that need no encoding: all n of an eager
	// session, whatever coded rows the shared budget had room for of a lazy
	// one, none of a rateless one.
	table *rowTable

	// Lazy-encoding state (nil for eager sessions): source rows are served
	// from src, other columns (raptor's intermediates, Tornado's cascade)
	// from cols, computed at the first emission that needs one, and an
	// absent coded row is codec.EncodeInto over cols. src passed
	// code.CheckSrc once, at construction: Columns and EncodeInto rely on it.
	src  [][]byte // the k source packets, aliasing one buffer
	cols func() [][]byte
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
// The session keeps data, as NewSessionCached does.
func NewSession(data []byte, cfg Config) (*Session, error) {
	return NewSessionCached(data, cfg, nil)
}

// NewSessionCached builds a session whose coded packets are encoded
// lazily, one at a time, on first carousel touch, and stay resident as far
// as the given shared BlockCache has room. Pass the same cache to every
// session of a service so the total repair-packet memory stays under one
// budget. Columns past the source (raptor's intermediates, Tornado's
// cascade) are computed once, at need, and not charged to it.
//
// A nil cache degrades a fixed-rate session to eager encoding (full
// materialization at construction). The session keeps data (code.Split's
// packets are views of it): do not modify it.
func NewSessionCached(data []byte, cfg Config, cache *BlockCache) (*Session, error) {
	cfg.PacketLen = PadPacketLen(cfg.PacketLen)
	if cfg.SPInterval <= 0 {
		cfg.SPInterval = 16
	}
	row := rowOf(cfg.Codec)
	// The descriptor comes first: the codec is built from it, through the
	// same buildCodec — check, then table row — a receiver will use.
	info := proto.SessionInfo{
		Session:    cfg.Session,
		Codec:      cfg.Codec,
		Layers:     uint8(cfg.Layers),
		N:          code.UnboundedN,
		PacketLen:  uint32(cfg.PacketLen),
		FileLen:    uint64(len(data)),
		Seed:       cfg.Seed,
		SPInterval: uint32(cfg.SPInterval),
		Digest:     sha256.Sum256(data),
	}
	if row.fill != nil {
		row.fill(&info, cfg)
	}
	info.K = uint32(sourcePackets(&info))
	if !row.rateless {
		info.N = info.K * uint32(cfg.Stretch)
	}
	codec, err := buildCodec(&info)
	if err != nil {
		return nil, err
	}
	// A configuration value too wide for its descriptor word was truncated
	// above, possibly into something valid.
	if int(info.Layers) != cfg.Layers || int(info.PacketLen) != cfg.PacketLen ||
		!row.rateless && int(info.N/info.K) != cfg.Stretch {
		return nil, fmt.Errorf("core: %d layers, packet length %d or stretch %d does not fit a session descriptor",
			cfg.Layers, cfg.PacketLen, cfg.Stretch)
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
	s := &Session{cfg: cfg, codec: codec, info: info, sched: sc}
	s.rateless = code.IsRateless(codec)
	if !s.rateless {
		s.perm = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)).Perm(codec.N())
	}
	if !s.rateless && cache == nil {
		enc, err := codec.Encode(src)
		if err != nil {
			return nil, err
		}
		s.table = fullTable(enc)
		return s, nil
	}
	// The one validation of the session-constant source block: Columns and
	// every later EncodeInto (per emission, per table fill) rely on it.
	if err := code.CheckSrc(src, codec.K(), cfg.PacketLen); err != nil {
		return nil, err
	}
	s.src = src
	s.cols = sync.OnceValue(func() [][]byte { return codec.Columns(src) })
	if s.rateless {
		s.table = &rowTable{}
		return s, nil
	}
	s.table = &rowTable{rows: make([]atomic.Pointer[[]byte], codec.N()), budget: cache}
	// A session that becomes garbage without a Drop returns its charge too.
	runtime.AddCleanup(s, (*rowTable).release, s.table)
	return s, nil
}

// Lazy reports whether the session encodes coded packets on demand.
func (s *Session) Lazy() bool { return s.cols != nil }

// Rateless reports whether the session's codec has an unbounded index
// space: its carousel streams fresh monotone indices instead of cycling.
func (s *Session) Rateless() bool { return s.rateless }

// Payload returns the payload bytes of encoding packet idx: the resident
// row, which is shared and must not be modified, or a fresh encoding of an
// absent one.
func (s *Session) Payload(idx int) []byte {
	if row := s.resident(idx); row != nil {
		return row
	}
	return s.appendCoded(nil, idx)
}

// resident returns row idx if it needs no encoding. A lazy session's
// columns — its source rows, which alias the file buffer, and any computed
// beside it — are never absent, never counted or charged.
func (s *Session) resident(idx int) []byte {
	if s.cols != nil {
		if f := s.codec.SourceOf(idx); f >= len(s.src) {
			return s.cols()[f]
		} else if f >= 0 {
			return s.src[f]
		}
	}
	return s.table.get(idx)
}

// appendCoded appends absent coded packet idx to dst, encoding it in place,
// and offers the result to the table.
func (s *Session) appendCoded(dst []byte, idx int) []byte {
	at := len(dst)
	dst = slices.Grow(dst, s.cfg.PacketLen)[:at+s.cfg.PacketLen]
	clear(dst[at:])
	s.codec.EncodeInto(dst[at:], s.cols(), idx)
	s.table.keep(idx, dst[at:])
	return dst
}

// Codec exposes the session's erasure codec.
func (s *Session) Codec() code.Codec { return s.codec }

// Config returns the session configuration (with padded packet length).
func (s *Session) Config() Config { return s.cfg }

// Info returns the control-channel descriptor of the session.
func (s *Session) Info() proto.SessionInfo { return s.info }

// Packet returns the wire form (header + payload) of encoding packet idx
// for the given layer/serial/flags, in a freshly allocated buffer.
func (s *Session) Packet(idx int, layer uint8, serial uint32, flags uint8) []byte {
	return s.AppendPacket(make([]byte, 0, s.WireLen()), idx, layer, serial, flags)
}

// AppendPacket appends the wire form (header + payload + integrity
// trailer) of encoding packet idx to dst and returns the extended slice —
// the zero-copy form of Packet for senders that build packets in pooled
// buffers. With cap(dst) >= WireLen() the call allocates nothing, except
// for the copy of a coded row that becomes resident on this touch: the
// CRC32C trailer is a hardware checksum plus four appended bytes.
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
	if row := s.resident(idx); row != nil {
		dst = append(dst, row...)
	} else {
		dst = s.appendCoded(dst, idx) // no intermediate payload
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
	// The fixed-point test: a sender publishes what its codec resolved, so
	// building from a sender's descriptor hands the same descriptor back. It
	// refuses every codec word no construction resolves to (zero raptor
	// checks, a degree cap beyond the symbols, c = 0) and an N the codec
	// would not have.
	built := info
	codec, err := buildCodec(&built)
	if err != nil {
		return nil, err
	}
	if built != info {
		return nil, fmt.Errorf("core: descriptor states %s, its codec resolves %s",
			DescribeCodec(info), DescribeCodec(built))
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

// File returns the decoder's source buffer trimmed to the file, verified.
func (r *Receiver) File() ([]byte, error) {
	if r.fileBuf != nil {
		return r.fileBuf, nil
	}
	src, err := r.dec.Source()
	if err != nil {
		return nil, err
	}
	data := src[:r.info.FileLen]
	// End-to-end proof: the decoded bytes must match the descriptor's
	// SHA-256 digest (never zero: checkDescriptor refused that).
	if got := sha256.Sum256(data); got != r.info.Digest {
		return nil, fmt.Errorf("core: file digest mismatch: got %x want %x", got, r.info.Digest)
	}
	r.fileBuf = data
	return data, nil
}

// Released returns the values the decoder resolved from coded packets, or
// -1 when the decoder does not count them (code.ReleaseCounter). A systematic
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
