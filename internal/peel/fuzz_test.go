package peel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/code"
)

// FuzzPeelStream drives the engine with a hostile but well-tagged packet
// stream: the fuzzer picks the code shape and an arbitrary sequence of
// indices — duplicates, the top of the index space, adversarial orders,
// out-of-range and wrong-length packets — while payloads stay authentic
// (the integrity tag is checked before a packet reaches a decoder). The
// engine must never panic, must reject malformed packets without counting
// them, and if it reports done must reproduce the source. With the
// header's corrupt bit set payloads are garbage instead: the equations
// are then inconsistent, so only "never panics" is asserted.
func FuzzPeelStream(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2})
	f.Add([]byte{1, 30, 7, 1, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0, 0, 0, 3, 0, 0, 0, 0, 4, 9, 9, 9, 9})
	f.Add([]byte{3, 12, 9, 5, 0, 0, 0, 0, 5, 1, 0, 0, 0, 5, 2, 0, 0, 0, 5, 3, 0, 0, 0})
	// Raptor-shaped: repair packets first, then the systematic stream, so
	// systematic packets land on slots where coded payloads wait.
	repairFirst := append([]byte{1, 20, 4}, bytes.Repeat([]byte{7, 0, 0, 0, 0}, 9)...)
	f.Add(append(repairFirst, bytes.Repeat([]byte{6, 0, 0, 0, 0}, 20)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		k := int(in[1])%48 + 1
		checks := 0
		if in[0]&1 != 0 {
			checks = k/4 + 2
		}
		corrupt := in[0]&2 != 0
		tc := newTestCode(k, checks, 8, int64(in[2]))
		d := NewDecoder(&tc.Code)
		next := uint32(0)   // the in-order stream position
		repair := uint32(k) // the repair stream's, past the systematic prefix of a raptor shape
		for ops := in[3:]; len(ops) >= 5 && !d.Done(); ops = ops[5:] {
			kind, raw := ops[0]%8, binary.LittleEndian.Uint32(ops[1:5])
			if kind < 2 {
				i, p := int(raw%uint32(2*k)), make([]byte, tc.PacketLen)
				switch {
				case kind == 1: // wrong length
					p = p[:int(raw>>8)%tc.PacketLen]
				case raw&1 != 0: // past the index space
					i = code.UnboundedN + int(raw>>1)
				default: // negative
					i = -1 - int(raw>>1)
				}
				before := d.Received()
				if _, err := d.Add(i, p); err == nil {
					t.Fatalf("malformed packet (index %d, %d bytes) accepted", i, len(p))
				}
				if d.Received() != before {
					t.Fatal("malformed packet counted as received")
				}
				continue
			}
			var index uint32
			switch kind {
			case 2: // anywhere in the index space
				index = raw % code.UnboundedN
			case 3: // around the systematic boundary
				index = raw % uint32(3*k)
			case 4: // counting down from the top
				index = code.UnboundedN - 1 - raw%uint32(4*k)
			case 7: // the repair stream, so systematic packets can follow coded ones
				index = repair
				repair++
			default: // the in-order stream, so fuzzing reaches done
				index = next
				next += 1 + raw%2
			}
			p := tc.packet(index)
			if corrupt {
				copy(p, ops[1:5])
			}
			if _, err := d.Add(int(index), p); err != nil {
				t.Fatalf("Add(%d): %v", index, err)
			}
		}
		if d.Done() && !corrupt {
			tc.checkSource(t, d)
		}
	})
}
