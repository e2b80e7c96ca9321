package tornado

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzTornadoStream drives the decoder with a hostile but well-tagged
// packet stream: the fuzzer picks the variant, a dense target small enough
// for a cascade or the shipped one, a stretch factor, k, and an arbitrary
// sequence of indices — duplicates, the dense checks before any value,
// adversarial orders, out-of-range and wrong-length packets — while
// payloads stay authentic (the integrity tag is checked before a packet
// reaches a decoder). The decoder must never panic, must reject malformed
// packets without counting them, must count each distinct index once, and
// if it reports done must reproduce the source. With the header's corrupt
// bit set payloads are garbage instead: the equations are then
// inconsistent, so only "never panics" is asserted.
func FuzzTornadoStream(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 0, 0, 0, 0, 5, 0, 0, 0, 0, 4, 0, 0, 0, 0, 5, 1, 0, 0, 0})
	f.Add([]byte{1, 47, 7, 3, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 9, 9, 9, 9, 1, 0, 3, 0, 0, 2, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{7, 30, 9, 2, 4, 0, 0, 0, 4, 1, 0, 0, 0, 5, 2, 0, 0, 0, 5, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		p := A()
		if in[0]&1 != 0 {
			p = B()
		}
		if in[0]&4 != 0 {
			p.DenseTarget = 8 // a cascade even at these k
		}
		corrupt := in[0]&2 != 0
		k := int(in[1])%48 + 1
		const packetLen = 8
		stretch := 2 + int(in[0]>>4)%15 // 2..16
		c, err := New(p, k, stretch*k, packetLen, int64(in[2]))
		if err != nil {
			t.Fatal(err)
		}
		src := make([][]byte, k)
		for i := range src {
			src[i] = bytes.Repeat([]byte{byte(i), in[2]}, packetLen/2)
		}
		enc, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		d := c.NewDecoder()
		seen := make([]bool, c.n)
		distinct, next, last := 0, 0, 0
		for ops := in[3:]; len(ops) >= 5 && !d.Done(); ops = ops[5:] {
			kind, raw := ops[0]%8, binary.LittleEndian.Uint32(ops[1:5])
			if kind < 2 {
				i, pkt := int(raw%uint32(c.n)), make([]byte, packetLen)
				switch {
				case kind == 1: // wrong length
					pkt = pkt[:int(raw>>8)%packetLen]
				case raw&1 != 0: // past the encoding
					i = c.n + int(raw>>1)
				default: // negative
					i = -1 - int(raw>>1)
				}
				if _, err := d.Add(i, pkt); err == nil {
					t.Fatalf("malformed packet (index %d, %d bytes) accepted", i, len(pkt))
				}
				if d.Received() != distinct {
					t.Fatal("malformed packet counted as received")
				}
				continue
			}
			var index int
			switch kind {
			case 2: // anywhere in the encoding
				index = int(raw % uint32(c.n))
			case 3: // counting down from the top: dense checks first
				index = c.n - 1 - int(raw%uint32(c.n))
			case 4: // the last packet again
				index = last
			default: // the carousel, so fuzzing reaches done
				index = next % c.n
				next += 1 + int(raw%2)
			}
			last = index
			pkt := enc[index]
			if corrupt {
				pkt = append(ops[1:5:5], pkt[4:]...)
			}
			if _, err := d.Add(index, pkt); err != nil {
				t.Fatalf("Add(%d): %v", index, err)
			}
			if !seen[index] {
				seen[index] = true
				distinct++
			}
			if d.Received() != distinct {
				t.Fatalf("Received() = %d after %d distinct indices", d.Received(), distinct)
			}
		}
		if d.Done() && !corrupt {
			got, err := d.Source()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range src {
				if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
					t.Fatalf("source packet %d differs from what was sent", i)
				}
			}
		}
	})
}
