package client

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// fuzzSession is one engine shape FuzzEngineIntake feeds: a real session,
// whose descriptor builds the engine and whose packets the fuzzer stamps.
type fuzzSession struct {
	sess *core.Session
	info proto.SessionInfo
}

// fuzzSessions builds a small session for every codec row at 1 and 4
// layers: 1 000 bytes in 16-byte packets, so k = 63 and a run of fuzz
// records can complete a decode.
func fuzzSessions(f *testing.F) []fuzzSession {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 131)
	}
	var out []fuzzSession
	for _, name := range core.CodecNames() {
		id, err := core.CodecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, layers := range []int{1, 4} {
			cfg := core.DefaultConfig()
			cfg.Codec = id
			cfg.Layers = layers
			cfg.PacketLen = 16
			cfg.Session = 0x0F00 + uint16(len(out))
			sess, err := core.NewSession(data, cfg)
			if err != nil {
				f.Fatalf("%s layers=%d: %v", name, layers, err)
			}
			out = append(out, fuzzSession{sess, sess.Info()})
		}
	}
	return out
}

// Fuzz records. A record is a control byte and its operand:
//
//	bits 0-1  source id (0..3)
//	bits 2-3  kind: recRaw, recRetag, recStamp, recForeign
//	bit  4    corrupt: flip one byte of a stamped datagram after tagging
//
// recRaw takes a length byte and that many bytes as the datagram, as they
// are (their tag almost never verifies); recRetag does the same and
// appends a valid tag. recStamp takes 10 bytes — index, serial, layer
// group, flags — and builds the session's own packet for index mod N;
// recForeign does the same under another session id.
const (
	recRaw = iota
	recRetag
	recStamp
	recForeign
)

const recCorrupt = 1 << 4

// fuzzStamp builds one stamped record.
func fuzzStamp(src, kind int, corrupt bool, idx, serial uint32, group, flags uint8) []byte {
	c := byte(src | kind<<2)
	if corrupt {
		c |= recCorrupt
	}
	rec := binary.BigEndian.AppendUint32([]byte{c}, idx)
	rec = binary.BigEndian.AppendUint32(rec, serial)
	return append(rec, group, flags)
}

// FuzzEngineIntake drives the one intake path, Engine.HandlePacketFrom,
// with datagrams split from the fuzz input: engines built from real
// sessions' descriptors (every codec row, 1 and 4 layers; the first input
// byte picks one), most datagrams re-tagged so they pass verification, fed
// under several source ids. After every datagram: nothing panicked; every
// source's Received equals Distinct + Duplicate and its Lost is not
// negative; the sources' Distinct sum to the engine's distinct count; a
// datagram with a bad tag or of a foreign session leaves that count alone,
// the first counted against its source as Corrupt with no error, the second
// refused with one.
func FuzzEngineIntake(f *testing.F) {
	sessions := fuzzSessions(f)
	for i, fs := range sessions {
		k := uint32(fs.info.K)
		// Two sources over the first 2k indices, every fifth lost on source
		// 0, plus one record of every other kind.
		seed := []byte{byte(i)}
		for idx := uint32(0); idx < 2*k; idx++ {
			if idx%5 != 0 {
				seed = append(seed, fuzzStamp(0, recStamp, false, idx, idx, uint8(idx%uint32(fs.info.Layers)), 0)...)
			}
			seed = append(seed, fuzzStamp(1, recStamp, false, 2*k-1-idx, idx, 0, proto.FlagSP)...)
		}
		seed = append(seed, fuzzStamp(2, recStamp, true, 3, 7, 0, 0)...)
		seed = append(seed, fuzzStamp(3, recForeign, false, 4, 8, 0, 0)...)
		seed = append(seed, byte(1|recRetag<<2), 5, 1, 2, 3, 4, 5)
		seed = append(seed, byte(2|recRaw<<2), 3, 9, 9, 9)
		f.Add(seed)
		f.Add([]byte{byte(i), byte(recStamp << 2), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 17, 3})
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		// An interleaved engine solves each block as it fills, beside the
		// intake. Let those solves end with this input, so the coverage
		// they produce is not credited to the next one.
		base := runtime.NumGoroutine()
		defer func() {
			for end := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
				runtime.Gosched()
			}
		}()
		fs := sessions[int(in[0])%len(sessions)]
		eng, err := New(fs.info, int(fs.info.Layers)-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		in = in[1:]
		var pkt []byte
		forged := false // a datagram not built by the session was accepted
		for len(in) > 0 {
			c := in[0]
			in = in[1:]
			src, kind, corrupt := int(c&3), int(c>>2&3), c&recCorrupt != 0
			switch kind {
			case recRaw, recRetag:
				if len(in) == 0 {
					return
				}
				n := min(int(in[0]), len(in)-1)
				pkt = append(pkt[:0], in[1:1+n]...)
				in = in[1+n:]
				if kind == recRetag {
					pkt = proto.AppendTag(pkt)
				}
			default:
				if len(in) < 10 {
					return
				}
				idx := int(binary.BigEndian.Uint32(in) % fs.info.N)
				serial := binary.BigEndian.Uint32(in[4:])
				group, flags := in[8], in[9]
				in = in[10:]
				pkt = fs.sess.AppendPacket(pkt[:0], idx, group, serial, flags)
				if kind == recForeign {
					// Re-tag under another session id: the session check,
					// not the tag, has to refuse it.
					pkt[10] ^= 0x80
					pkt = proto.AppendTag(pkt[:len(pkt)-proto.TagLen])
				}
				if corrupt {
					pkt[int(serial)%len(pkt)] ^= 1 << (flags & 7)
				}
			}
			_, before, _ := eng.Stats()
			corruptBefore := eng.SourceStats(src).Corrupt
			_, badTag := proto.VerifyPacket(pkt)
			_, err := eng.HandlePacketFrom(src, pkt)
			_, distinct, _ := eng.Stats()
			switch {
			case errors.Is(badTag, proto.ErrBadTag):
				if err != nil || eng.SourceStats(src).Corrupt != corruptBefore+1 {
					t.Fatalf("bad-tag datagram: err %v, Corrupt %d -> %d", err, corruptBefore, eng.SourceStats(src).Corrupt)
				}
				if distinct != before {
					t.Fatalf("bad-tag datagram moved the distinct count %d -> %d", before, distinct)
				}
			case kind == recForeign:
				if err == nil || distinct != before {
					t.Fatalf("foreign-session datagram: err %v, distinct %d -> %d", err, before, distinct)
				}
			case kind <= recRetag && err == nil:
				forged = true
			}
			sum := 0
			for _, id := range eng.Sources() {
				st := eng.SourceStats(id)
				if st.Received != st.Distinct+st.Duplicate {
					t.Fatalf("source %d: Received %d != Distinct %d + Duplicate %d", id, st.Received, st.Distinct, st.Duplicate)
				}
				if st.Lost < 0 {
					t.Fatalf("source %d: Lost %d", id, st.Lost)
				}
				sum += st.Distinct
			}
			if sum != distinct {
				t.Fatalf("sources' Distinct sum to %d, the engine counts %d", sum, distinct)
			}
		}
		// A forged payload may fail the digest check; the session's own
		// packets may not.
		if eng.Done() {
			if _, err := eng.File(); err != nil && !forged {
				t.Fatalf("%s: decoded file refused: %v", core.DescribeCodec(fs.info), err)
			}
		}
	})
}
