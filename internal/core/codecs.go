package core

import (
	"fmt"
	"math"

	"repro/internal/code"
	"repro/internal/interleave"
	"repro/internal/lt"
	"repro/internal/proto"
	"repro/internal/raptor"
	"repro/internal/rs"
	"repro/internal/tornado"
)

// codecRow is everything the stack knows about one wire codec id. A
// session descriptor (proto.SessionInfo) is the advance agreement of §5.1,
// and both sides of the wire reach a codec only through its row's build:
// the sender on the descriptor it is about to publish, the receiver on the
// one it was handed. Adding a codec is its package plus one row here (and
// descriptor words only if it needs new ones).
type codecRow struct {
	name     string // what the CLIs take and print
	rateless bool   // N is the unbounded sentinel; no stretch factor
	// fill writes the descriptor words the sender takes from its Config.
	fill func(d *proto.SessionInfo, cfg Config)
	// roundK maps the packet count a file needs to the K of the codec
	// built for it.
	roundK func(d *proto.SessionInfo, k uint64) uint64
	// build constructs the codec from the descriptor's words and stores
	// back the words construction resolved.
	build func(d *proto.SessionInfo) (code.Codec, error)
}

// codecs is the one table of wire codec ids.
var codecs = [...]codecRow{
	proto.CodecTornadoA: {name: "tornado-a", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return tornado.New(tornado.A(), int(d.K), int(d.N), int(d.PacketLen), d.Seed)
	}},
	proto.CodecTornadoB: {name: "tornado-b", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return tornado.New(tornado.B(), int(d.K), int(d.N), int(d.PacketLen), d.Seed)
	}},
	proto.CodecVandermonde: {name: "vandermonde", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return rs.NewVandermonde(int(d.K), int(d.N), int(d.PacketLen))
	}},
	proto.CodecCauchy: {name: "cauchy", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return rs.NewCauchy(int(d.K), int(d.N), int(d.PacketLen))
	}},
	proto.CodecInterleaved: {
		name: "interleaved",
		fill: func(d *proto.SessionInfo, cfg Config) {
			d.InterleaveK = 50 // source packets per block unless configured
			if cfg.InterleaveBlockK > 0 {
				d.InterleaveK = uint32(cfg.InterleaveBlockK)
			}
		},
		// Whole blocks of min(InterleaveK, k) packets; the tail is zero
		// padding. A zero block size is left for build to refuse.
		roundK: func(d *proto.SessionInfo, k uint64) uint64 {
			bk := uint64(d.InterleaveK)
			if bk == 0 || bk > k {
				return k
			}
			return (k + bk - 1) / bk * bk
		},
		build: func(d *proto.SessionInfo) (code.Codec, error) {
			return interleave.NewForFile(int(d.K), int(d.InterleaveK), int(d.N/d.K), int(d.PacketLen))
		},
	},
	// A sender leaves the rateless codes' words zero: the constructors take
	// that as "the package default", and the descriptor publishes what they
	// resolved, so no receiver re-derives a default that could drift.
	proto.CodecLT: {
		name: "lt", rateless: true,
		build: func(d *proto.SessionInfo) (code.Codec, error) {
			c, err := lt.New(int(d.K), int(d.PacketLen), d.Seed, unmicro(d.LTCMicro), unmicro(d.LTDeltaMicro))
			if err != nil {
				return nil, err
			}
			d.LTCMicro, d.LTDeltaMicro = micros(c.Params())
			return c, nil
		},
	},
	proto.CodecRaptor: {
		name: "raptor", rateless: true,
		build: func(d *proto.SessionInfo) (code.Codec, error) {
			c, err := raptor.New(int(d.K), int(d.PacketLen), d.Seed, unmicro(d.LTCMicro), unmicro(d.LTDeltaMicro),
				int(d.RaptorS), int(d.RaptorMaxD))
			if err != nil {
				return nil, err
			}
			d.LTCMicro, d.LTDeltaMicro = micros(c.Params())
			d.RaptorS, d.RaptorMaxD = uint32(c.Checks()), uint32(c.MaxDegree())
			return c, nil
		},
	},
}

// micros quantizes the soliton parameters (c, δ) to the wire's millionths.
// Codecs are built from unmicro of the words, on both sides, so sender and
// receivers derive the identical degree distribution.
func micros(c, delta float64) (uint32, uint32) {
	return uint32(math.Round(c * 1e6)), uint32(math.Round(delta * 1e6))
}
func unmicro(m uint32) float64 { return float64(m) / 1e6 }

// rowOf returns the table row of a wire codec id: the zero row, which has
// no build, for an id this build does not know.
func rowOf(id uint8) codecRow {
	if int(id) < len(codecs) {
		return codecs[id]
	}
	return codecRow{}
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
	if name := rowOf(id).name; name != "" {
		return name
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

// DescribeCodec renders the code a descriptor names for a log line: codec
// name, k, n when finite, and the codec words that are set.
func DescribeCodec(d proto.SessionInfo) string {
	s := fmt.Sprintf("%s k=%d", CodecName(d.Codec), d.K)
	if d.N != code.UnboundedN {
		s += fmt.Sprintf(" n=%d", d.N)
	}
	if d.InterleaveK != 0 {
		s += fmt.Sprintf(" block-k=%d", d.InterleaveK)
	}
	if d.RaptorS != 0 || d.RaptorMaxD != 0 {
		s += fmt.Sprintf(" s=%d maxd=%d", d.RaptorS, d.RaptorMaxD)
	}
	if d.LTCMicro != 0 || d.LTDeltaMicro != 0 {
		s += fmt.Sprintf(" c=%.3g delta=%.3g", unmicro(d.LTCMicro), unmicro(d.LTDeltaMicro))
	}
	return s
}

// maxStretch is the largest stretch factor n/k a fixed-rate session may
// have. Every session in the tree uses 2 (the paper's choice); the ceiling
// exists so that a descriptor cannot buy an encoding, and the decoder
// state sized by it, many times the file it advertises.
const maxStretch = 16

// sourcePackets returns the K of a session carrying d's file:
// ⌈FileLen/PacketLen⌉, one packet at least, rounded by the codec's row —
// or 0, which no valid descriptor has, without a packet length to divide by.
func sourcePackets(d *proto.SessionInfo) uint64 {
	pl := uint64(d.PacketLen)
	if pl == 0 {
		return 0
	}
	k := d.FileLen / pl // no FileLen+pl-1: FileLen may be near 2^64
	if d.FileLen%pl != 0 || k == 0 {
		k++
	}
	if roundK := rowOf(d.Codec).roundK; roundK != nil {
		k = roundK(d, k)
	}
	return k
}

// checkDescriptor is the one set of rules a descriptor must pass before a
// codec is built from it — what NewSessionCached is about to publish and
// what NewReceiver took off a socket alike, so a sender cannot publish what
// a receiver refuses, decoder memory is bounded by the file the user asked
// for, not by a 99-byte datagram, and no download starts that could not end
// on the SHA-256 check.
func checkDescriptor(d *proto.SessionInfo) error {
	row := rowOf(d.Codec)
	switch {
	case row.build == nil:
		return fmt.Errorf("core: unknown codec %d", d.Codec)
	case d.PacketLen == 0 || d.PacketLen%16 != 0 || d.PacketLen > proto.MaxPacketLen:
		// What PadPacketLen produces and one UDP datagram can carry.
		return fmt.Errorf("core: descriptor has packet length %d, want a multiple of 16 in 16..%d",
			d.PacketLen, proto.MaxPacketLen)
	case d.Layers < 1 || d.Layers > 16:
		return fmt.Errorf("core: descriptor has layer count %d out of range", d.Layers)
	case uint64(d.K) != sourcePackets(d): // never 0: the divisions below are safe
		return fmt.Errorf("core: descriptor has k=%d, a %d-byte file in %d-byte packets has %d",
			d.K, d.FileLen, d.PacketLen, sourcePackets(d))
	case row.rateless && d.N != code.UnboundedN:
		return fmt.Errorf("core: rateless descriptor has n=%d, want %d", d.N, code.UnboundedN)
	case !row.rateless && (d.N%d.K != 0 || d.N/d.K < 2 || d.N/d.K > maxStretch):
		return fmt.Errorf("core: descriptor has n=%d for k=%d: not a whole stretch factor in 2..%d",
			d.N, d.K, maxStretch)
	case d.Digest == [32]byte{}:
		return fmt.Errorf("core: descriptor carries no file digest")
	}
	return nil
}

// buildCodec is the one way to a codec constructor, for sender and receiver
// alike: check the descriptor, construct through its table row, and store
// back into d everything construction resolved.
func buildCodec(d *proto.SessionInfo) (code.Codec, error) {
	if err := checkDescriptor(d); err != nil {
		return nil, err
	}
	codec, err := codecs[d.Codec].build(d)
	if err != nil {
		return nil, err
	}
	d.K, d.N = uint32(codec.K()), uint32(codec.N())
	return codec, nil
}
