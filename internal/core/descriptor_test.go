package core

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

// badDescriptors are edits that turn a sender's descriptor into one
// NewReceiver must refuse: TestNewReceiverRejectsBadCounts applies each to
// every codec id it names, and FuzzNewReceiver starts from the results.
var badDescriptors = []struct {
	name  string
	early bool    // rejected by checkDescriptor, before a codec is built
	only  []uint8 // codec ids the edit invalidates (nil: all)
	edit  func(*proto.SessionInfo)
}{
	{"k=0", true, nil, func(i *proto.SessionInfo) { i.K = 0 }},
	{"k=0,n=0", true, nil, func(i *proto.SessionInfo) { i.K, i.N = 0, 0 }},
	{"n<k", true, nil, func(i *proto.SessionInfo) { i.N = i.K - 1 }},
	{"n=0", true, nil, func(i *proto.SessionInfo) { i.N = 0 }},
	{"packetLen=0", true, nil, func(i *proto.SessionInfo) { i.PacketLen = 0 }},
	{"layers=0", true, nil, func(i *proto.SessionInfo) { i.Layers = 0 }},
	{"layers=17", true, nil, func(i *proto.SessionInfo) { i.Layers = 17 }},
	{"file>k*pl", true, nil, func(i *proto.SessionInfo) { i.FileLen = uint64(i.K)*uint64(i.PacketLen) + 1 }},
	{"file=2^64-1", true, nil, func(i *proto.SessionInfo) { i.FileLen = 1<<64 - 1 }},
	{"k>file", true, nil, func(i *proto.SessionInfo) { i.K, i.N = 2*i.K, 2*i.N }},
	{"hostile", true, nil, func(i *proto.SessionInfo) {
		i.K, i.N, i.PacketLen, i.FileLen = 1<<24, 1<<31-1, 1024, 10
	}},
	{"stretch", true, nil, func(i *proto.SessionInfo) {
		i.K, i.N, i.PacketLen, i.FileLen = 100, 20_000_000, 1024, 102_400
	}},
	// A fixed-rate code with nothing to repair with; no rateless N either.
	{"n=k", true, nil, func(i *proto.SessionInfo) { i.N = i.K }},
	// Packet lengths no sender pads to, or no datagram carries. The last
	// two are the measured ones: 32 receive buffers of 2 GiB per carrier
	// in fountain-client, and 173 MB of codec for a 3 281-byte file.
	{"packetLen=2", true, nil, func(i *proto.SessionInfo) { i.PacketLen = 2 }},
	{"packetLen=24", true, nil, func(i *proto.SessionInfo) { i.PacketLen = 24 }},
	{"packetLen=65504", true, nil, func(i *proto.SessionInfo) { i.PacketLen = 65504 }},
	{"packetLen=2^31", true, nil, func(i *proto.SessionInfo) { i.PacketLen = 1 << 31 }},
	{"one 2GiB packet", true, nil, func(i *proto.SessionInfo) {
		i.K, i.PacketLen, i.FileLen = 1, 1<<31, 1
		if i.N != code.UnboundedN {
			i.N = 2
		}
	}},
	{"2-byte packets", true, nil, func(i *proto.SessionInfo) {
		i.K, i.PacketLen, i.FileLen = 1641, 2, 3281
		if i.N != code.UnboundedN {
			i.N = 16 * 1641
		}
	}},
	// Codec words no sender's construction resolves to: these pass
	// checkDescriptor and fall to the fixed-point test.
	{"raptorS=0", false, []uint8{proto.CodecRaptor}, func(i *proto.SessionInfo) { i.RaptorS = 0 }},
	{"raptorS=2^32-1", false, []uint8{proto.CodecRaptor}, func(i *proto.SessionInfo) { i.RaptorS = 1<<32 - 1 }},
	{"raptorMaxD=2^31", false, []uint8{proto.CodecRaptor}, func(i *proto.SessionInfo) { i.RaptorMaxD = 1 << 31 }},
	{"ltC=0", false, []uint8{proto.CodecLT, proto.CodecRaptor}, func(i *proto.SessionInfo) { i.LTCMicro = 0 }},
	{"ltDelta=1", false, []uint8{proto.CodecLT, proto.CodecRaptor}, func(i *proto.SessionInfo) { i.LTDeltaMicro = 1_000_000 }},
	{"blockK=0", false, []uint8{proto.CodecInterleaved}, func(i *proto.SessionInfo) { i.InterleaveK = 0 }},
}

// TestNewReceiverRejectsBadCounts: a descriptor is untrusted input. For
// every codec id, K = 0 (which used to panic with an integer divide by
// zero), an N that is not a modest whole stretch of K, and geometry the
// advertised file cannot justify must come back as errors — before any
// codec is built, so a 107-byte datagram cannot make a client allocate
// gigabytes.
func TestNewReceiverRejectsBadCounts(t *testing.T) {
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		var good proto.SessionInfo
		// A file below one packet (k = 1), one ending mid-packet, and one
		// filling whole packets must all still be accepted.
		for _, size := range []int{10, 20000, 64 * 300} {
			cfg := DefaultConfig()
			cfg.Codec = id
			cfg.PacketLen = 64
			sess, err := NewSession(randData(rand.New(rand.NewSource(13)), size), cfg)
			if err != nil {
				t.Fatalf("codec %d: NewSession: %v", id, err)
			}
			good = sess.Info()
			if _, err := NewReceiver(good); err != nil {
				t.Fatalf("codec %d, %d bytes: valid descriptor rejected: %v", id, size, err)
			}
		}
		for _, tc := range badDescriptors {
			if tc.only != nil && !slices.Contains(tc.only, id) {
				continue
			}
			info := good
			tc.edit(&info)
			var rcv *Receiver
			var err error
			allocs := testing.AllocsPerRun(1, func() { rcv, err = NewReceiver(info) })
			if err == nil {
				t.Errorf("codec %d, %s: accepted (receiver %v)", id, tc.name, rcv != nil)
			} else if tc.early && allocs > 16 {
				t.Errorf("codec %d, %s: %v allocations before rejecting: a codec was built", id, tc.name, allocs)
			} else if !tc.early && checkDescriptor(&info) != nil {
				t.Errorf("codec %d, %s: stopped by %v, meant for the fixed-point test", id, tc.name, checkDescriptor(&info))
			}
		}
	}
}

// TestNewSessionRefusesWhatReceiversRefuse: the sender runs the receiver's
// checkDescriptor on what it is about to publish, so no configuration gets
// out as a descriptor a receiver turns away — including values too wide for
// their descriptor word.
func TestNewSessionRefusesWhatReceiversRefuse(t *testing.T) {
	// Past a uint32 where int has 64 bits, so that the narrowed word alone
	// would be a valid one; merely too large where it has 32.
	const wide = 1 << (bits.UintSize / 2)
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		for _, tc := range []struct {
			name     string
			edit     func(*Config)
			rateless bool // also refused for a rateless code, which ignores Stretch
		}{
			{"stretch=1", func(c *Config) { c.Stretch = 1 }, false},
			{"stretch=17", func(c *Config) { c.Stretch = 17 }, false},
			{"stretch=wide+2", func(c *Config) { c.Stretch = wide + 2 }, false},
			{"layers=0", func(c *Config) { c.Layers = 0 }, true},
			{"layers=17", func(c *Config) { c.Layers = 17 }, true},
			{"layers=257", func(c *Config) { c.Layers = 257 }, true},
			{"packetLen=0", func(c *Config) { c.PacketLen = 0 }, true},
			{"packetLen=65489", func(c *Config) { c.PacketLen = proto.MaxPacketLen + 1 }, true},
			{"packetLen=2^31-1", func(c *Config) { c.PacketLen = math.MaxInt32 }, true},
			{"packetLen=wide+64", func(c *Config) { c.PacketLen = wide + 64 }, true},
		} {
			cfg := DefaultConfig()
			cfg.Codec = id
			tc.edit(&cfg)
			_, err := NewSession(make([]byte, 3281), cfg)
			if want := tc.rateless || !codecs[id].rateless; (err != nil) != want {
				t.Errorf("codec %d, %s: err = %v, want refusal = %v", id, tc.name, err, want)
			}
		}
	}
	if _, err := NewSession(nil, Config{Codec: uint8(len(codecs)), PacketLen: 64, Stretch: 2, Layers: 1}); err == nil {
		t.Error("unknown codec id accepted")
	}
}

// TestCodecWordsAwayFromDefaults: no sender in the tree publishes c, δ, s,
// maxD or a block size other than the defaults, but receivers build
// whatever a descriptor states. Hand-written descriptors with non-default,
// self-consistent words must be fixed points of their table row, and a
// codec built from one must decode what a second one encoded.
func TestCodecWordsAwayFromDefaults(t *testing.T) {
	for _, d := range []proto.SessionInfo{
		{Codec: proto.CodecLT, K: 100, N: code.UnboundedN, LTCMicro: 100_000, LTDeltaMicro: 250_000},
		{Codec: proto.CodecRaptor, K: 100, N: code.UnboundedN, LTCMicro: 50_000, LTDeltaMicro: 400_000,
			RaptorS: 20, RaptorMaxD: 30},
		{Codec: proto.CodecInterleaved, K: 105, N: 315, InterleaveK: 7},
	} {
		d.Session, d.Layers, d.PacketLen, d.Seed = 9, 1, 32, 77
		data := randData(rand.New(rand.NewSource(int64(d.Codec))), int(d.K)*32-5)
		d.FileLen, d.Digest = uint64(len(data)), sha256.Sum256(data)

		if err := checkDescriptor(&d); err != nil {
			t.Fatalf("%s: %v", DescribeCodec(d), err)
		}
		built := d
		enc, err := buildCodec(&built)
		if err != nil {
			t.Fatalf("%s: %v", DescribeCodec(d), err)
		}
		if built != d {
			t.Fatalf("%s is not a fixed point: build resolves %s", DescribeCodec(d), DescribeCodec(built))
		}
		rcv, err := NewReceiver(d) // its own codec, through the same row
		if err != nil {
			t.Fatalf("%s: %v", DescribeCodec(d), err)
		}
		src, err := code.Split(data, int(d.K), int(d.PacketLen))
		if err != nil {
			t.Fatal(err)
		}
		rows := enc.(code.RowEncoder)
		cols := rows.Columns(src)
		loss := rand.New(rand.NewSource(5))
		for idx := 0; !rcv.Done(); idx++ {
			if idx == min(int(d.N), 4*int(d.K)) {
				t.Fatalf("%s: not decoded after %d packets", DescribeCodec(d), idx)
			}
			if loss.Intn(3) == 0 {
				continue // lost: make the decoder work
			}
			pkt := make([]byte, d.PacketLen)
			if f := rows.SourceOf(idx); f >= 0 {
				copy(pkt, cols[f])
			} else {
				rows.EncodeInto(pkt, cols, idx)
			}
			if _, err := rcv.Handle(idx, pkt); err != nil {
				t.Fatalf("%s: packet %d: %v", DescribeCodec(d), idx, err)
			}
		}
		if got, err := rcv.File(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: file differs (err %v)", DescribeCodec(d), err)
		}
	}
}

// fuzzFileCap bounds the files FuzzNewReceiver builds receivers for, so one
// exec stays in the tens of milliseconds: the Reed-Solomon codecs are
// quadratic in k, and k reaches FileLen/16.
const fuzzFileCap = 4 << 10

// A randomized probe of 20 000 valid descriptors under fuzzFileCap peaked at
// 64 KiB + 13 × the encoding (Tornado B, 16-byte packets: graph nodes, not
// payload); the harness's own packets add under 4 ×.
const (
	fuzzAllocBase    = 256 << 10
	fuzzAllocPerByte = 16
)

// FuzzNewReceiver pushes every descriptor the control parser accepts into a
// receiver, and a handful of packets — in range, out of range, wrong length,
// wrong session — into every receiver that comes back. Nothing may panic,
// and a descriptor for a file within fuzzFileCap may not allocate more than
// fuzzAllocBase + fuzzAllocPerByte × the encoding it describes (how much a
// caller is willing to spend on a file is the caller's budget, not checked
// here).
func FuzzNewReceiver(f *testing.F) {
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		sess, err := NewSession(randData(rand.New(rand.NewSource(13)), 3000), cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sess.Info().Append(nil))
		for _, tc := range badDescriptors {
			info := sess.Info()
			tc.edit(&info)
			f.Add(info.Append(nil))
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		info, err := proto.ParseSessionInfo(buf)
		if err != nil || info.FileLen > fuzzFileCap {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rcv, err := NewReceiver(info)
		if err == nil {
			pl := int(info.PacketLen)
			for _, idx := range []uint32{0, info.K - 1, info.K, info.N - 1, info.N, 1<<31 - 1, 1<<32 - 1} {
				for _, n := range []int{pl, pl - 1, 0, pl + 16} {
					h := proto.Header{Index: idx, Session: info.Session}
					rcv.HandleRaw(proto.AppendTag(append(h.Marshal(nil), make([]byte, n)...)))
					rcv.Handle(int(idx), make([]byte, n))
				}
			}
			h := proto.Header{Session: info.Session + 1}
			if _, err := rcv.HandleRaw(proto.AppendTag(append(h.Marshal(nil), make([]byte, pl)...))); err == nil {
				t.Fatal("packet of another session accepted")
			}
			rcv.File() // k = 1 may be done already; either way, no panic
		}
		runtime.ReadMemStats(&after)
		encoding := uint64(info.K) * uint64(info.PacketLen) * maxStretch
		if err != nil {
			encoding = 0
		}
		if got, max := after.TotalAlloc-before.TotalAlloc, fuzzAllocBase+fuzzAllocPerByte*encoding; got > max {
			t.Fatalf("%s (err %v): allocated %d bytes, bound %d", DescribeCodec(info), err, got, max)
		}
	})
}
