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
		back, err := Join(pkts, n)
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
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

func TestJoinErrors(t *testing.T) {
	if _, err := Join([][]byte{{1, 2}}, 5); err == nil {
		t.Fatal("origLen beyond data accepted")
	}
	if _, err := Join(nil, -1); err == nil {
		t.Fatal("negative origLen accepted")
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
