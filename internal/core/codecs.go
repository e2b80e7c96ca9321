package core

import (
	"fmt"

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
	// blockK returns the K of the Reed-Solomon block the descriptor asks a
	// receiver to decode, which checkDescriptor holds to maxBlockK; nil
	// for a code with no RS block.
	blockK func(d *proto.SessionInfo) uint32
	// fill writes the descriptor words the sender takes from its Config.
	fill func(d *proto.SessionInfo, cfg Config)
	// roundK maps the packet count a file needs to the K of the codec
	// built for it.
	roundK func(d *proto.SessionInfo, k uint64) uint64
	// build constructs the codec from the descriptor's words.
	build func(d *proto.SessionInfo) (code.Codec, error)
}

// maxBlockK is the largest Reed-Solomon block a descriptor may ask for.
// Cauchy decode time grows about as K², and faster past 1 024: a receiver
// of one block of K 16-byte sources, half of them lost, spends 103–115 ms
// at K = 1 024 and 288–296 ms at 2 048 on a 2-core box (EXPERIMENTS.md,
// "The Reed-Solomon block bound"). A larger file goes as interleaved
// blocks.
const maxBlockK = 1024

// codecs is the one table of wire codec ids; id 2 is reserved (proto).
var codecs = [...]codecRow{
	proto.CodecTornadoA: {name: "tornado-a", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return tornado.New(tornado.A(), int(d.K), int(d.N), int(d.PacketLen), d.Seed)
	}},
	proto.CodecTornadoB: {name: "tornado-b", build: func(d *proto.SessionInfo) (code.Codec, error) {
		return tornado.New(tornado.B(), int(d.K), int(d.N), int(d.PacketLen), d.Seed)
	}},
	proto.CodecCauchy: {
		name:   "cauchy",
		blockK: func(d *proto.SessionInfo) uint32 { return d.K },
		build: func(d *proto.SessionInfo) (code.Codec, error) {
			return rs.NewCauchy(int(d.K), int(d.N), int(d.PacketLen))
		},
	},
	proto.CodecInterleaved: {
		name: "interleaved",
		// Not min(InterleaveK, K): a larger block size is whole-file Cauchy
		// under another name, and is held to the same bound.
		blockK: func(d *proto.SessionInfo) uint32 { return d.InterleaveK },
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
	// A rateless code is named by (k, packet length, seed): its degree
	// distribution and precode are functions of k, so the descriptor has no
	// words for them.
	proto.CodecLT: {name: "lt", rateless: true, build: func(d *proto.SessionInfo) (code.Codec, error) {
		return lt.New(int(d.K), int(d.PacketLen), d.Seed)
	}},
	proto.CodecRaptor: {name: "raptor", rateless: true, build: func(d *proto.SessionInfo) (code.Codec, error) {
		return raptor.New(int(d.K), int(d.PacketLen), d.Seed)
	}},
}

// rowOf returns the table row of a wire codec id: the zero row, which has
// no build, for an id this build does not know.
func rowOf(id uint8) codecRow {
	if int(id) < len(codecs) {
		return codecs[id]
	}
	return codecRow{}
}

// CodecNames lists the codec names in id order, reserved ids skipped.
func CodecNames() []string {
	var names []string
	for _, c := range codecs {
		if c.build != nil {
			names = append(names, c.name)
		}
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
		if c.build != nil && c.name == name {
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
// for, not by an 83-byte datagram, and no download starts that could not end
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
	case row.blockK != nil && row.blockK(d) > maxBlockK:
		return fmt.Errorf("core: %s descriptor asks for a Reed-Solomon block of k=%d, above %d; send a larger file as interleaved blocks",
			row.name, row.blockK(d), maxBlockK)
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
