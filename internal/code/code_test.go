package code

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1000)
		data := make([]byte, n)
		rng.Read(data)
		packetLen := 1 + rng.Intn(64)
		k := max(1, (n+packetLen-1)/packetLen)
		pkts, err := Split(data, k, packetLen)
		if err != nil {
			return false
		}
		if len(pkts) != k {
			return false
		}
		return bytes.Equal(bytes.Join(pkts, nil)[:n], data)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitPadsWithZeros(t *testing.T) {
	pkts, err := Split([]byte{1, 2, 3}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkts[0], []byte{1, 2, 3, 0}) || !bytes.Equal(pkts[1], []byte{0, 0, 0, 0}) {
		t.Fatalf("padding wrong: %v", pkts)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(make([]byte, 10), 2, 4); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := Split(nil, 0, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Split(nil, 2, 0); err == nil {
		t.Fatal("packetLen=0 accepted")
	}
}

// TestSplitAliasesWholePackets pins Split's zero-copy contract: every
// packet data fills is a view of it, and the tail — a partial last packet
// and the packets an interleaved codec rounds k up by — is one separate,
// zero-padded copy.
func TestSplitAliasesWholePackets(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, k, pl     int
		whole, extra int // packets aliasing data; tail packets
	}{
		{"exact multiple", 64, 4, 16, 4, 0},
		{"partial last packet", 60, 4, 16, 3, 1},
		{"interleaved round-up", 40, 6, 16, 2, 4},
	} {
		data := make([]byte, tc.n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		pkts, err := Split(data, tc.k, tc.pl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range tc.whole {
			if &pkts[i][0] != &data[i*tc.pl] || cap(pkts[i]) != tc.pl {
				t.Fatalf("%s: packet %d is not a capped view of data", tc.name, i)
			}
		}
		rest := data[tc.whole*tc.pl:]
		tail := bytes.Join(pkts[tc.whole:], nil)
		if len(tail) != tc.extra*tc.pl || !bytes.Equal(tail[:len(rest)], rest) ||
			!bytes.Equal(tail[len(rest):], make([]byte, len(tail)-len(rest))) {
			t.Fatalf("%s: tail %v is not data's rest, zero-padded", tc.name, tail)
		}
		for _, p := range pkts[tc.whole:] {
			p[0] ^= 0xFF
		}
		if data[0] != 1 || data[tc.n-1] != byte(tc.n) {
			t.Fatalf("%s: writing a tail packet reached data", tc.name)
		}
	}
}

func TestSourceBuf(t *testing.T) {
	s := SourceBuf{K: 3, PacketLen: 4}
	if s.Bytes() != nil {
		t.Fatal("buffer allocated before the first Slot")
	}
	copy(s.Slot(1), []byte{1, 2, 3, 4, 5})
	got := s.Bytes()
	if !bytes.Equal(got, []byte{0, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0}) {
		t.Fatalf("Bytes = %v after writing slot 1", got)
	}
	if cap(s.Slot(0)) != 4 || &s.Slot(2)[0] != &got[8] {
		t.Fatal("slots are not capped views of the one buffer")
	}
}

func TestCheckSrc(t *testing.T) {
	good := [][]byte{{1, 2}, {3, 4}}
	if err := CheckSrc(good, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckSrc(good, 3, 2); err == nil {
		t.Fatal("wrong k accepted")
	}
	if err := CheckSrc([][]byte{{1}, {3, 4}}, 2, 2); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestCheckPacket(t *testing.T) {
	if err := CheckPacket(0, []byte{1, 2}, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckPacket(-1, []byte{1, 2}, 4, 2); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := CheckPacket(4, []byte{1, 2}, 4, 2); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := CheckPacket(1, []byte{1}, 4, 2); err == nil {
		t.Fatal("short packet accepted")
	}
}
