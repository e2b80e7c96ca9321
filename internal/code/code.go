// Package code defines the erasure-code abstraction shared by every codec
// in this repository (Tornado, Reed-Solomon Vandermonde, Reed-Solomon
// Cauchy, interleaved block codes, and the rateless LT and raptor codes),
// plus Split and SourceBuf, a file's one copy at either end.
//
// The fixed-rate codecs are systematic: k source packets are stretched
// into n encoding packets that include the source packets themselves (the
// paper fixes the stretch factor n/k = 2 throughout). Rateless codecs (LT,
// raptor) instead expose an effectively unbounded index space — N()
// returns the UnboundedN sentinel — realizing the paper's ideal digital
// fountain (§3) that the fixed-rate codes only approximate.
//
// Every codec encodes packet i as a pure function of (source, i) and
// states that once, as a RowEncoder; the window form (RangeEncoder), the
// whole encoding of the finite ones (Codec.Encode) and a session's emission
// path are all built from its three methods.
package code

import (
	"errors"
	"fmt"
)

// Codec is a systematic erasure code over equal-length packets.
type Codec interface {
	// Name identifies the codec in experiment output (e.g. "tornado-a").
	Name() string
	RowEncoder
	// Encode produces the full encoding of the k source packets: a slice
	// of n packets whose first k entries alias src. Each src packet must
	// have length PacketLen.
	Encode(src [][]byte) ([][]byte, error)
	// NewDecoder returns a fresh decoder for one reception session.
	// Decoders are independent; the codec itself is immutable and safe
	// for concurrent use once constructed.
	NewDecoder() Decoder
}

// RangeEncoder is the public window form of a RowEncoder: any contiguous
// index range of the encoding, produced on demand without materializing
// the other n - (hi-lo) packets. The RS, interleaved, LT and raptor codecs
// implement it as one call to EncodeRows; Tornado does not, as nothing asks
// it for windows.
type RangeEncoder interface {
	// EncodeRange returns encoding packets [lo, hi), validating src (the
	// full k source packets) and the range on every call. Entries that are
	// source packets alias src; coded entries are freshly allocated.
	EncodeRange(src [][]byte, lo, hi int) ([][]byte, error)
}

// UnboundedN is the N() sentinel of a rateless codec: 2^31 - 1, the
// largest index count that fits an int on every platform (and the uint32
// wire field). Any index below it is a valid encoding packet; the index
// space is never exhausted in practice — a two-billion-packet stream is
// weeks of continuous transmission — so the carousel streams monotonically
// increasing indices instead of cycling, wrapping harmlessly onto
// long-consumed indices if a session outlives the space.
const UnboundedN = 1<<31 - 1

// Rateless is an optional Codec capability marking codecs whose encoding
// is unbounded: N() returns UnboundedN and Encode is unavailable (there is
// no "full encoding" to materialize), so packets are only ever encoded one
// row at a time.
type Rateless interface {
	// RatelessCode is a marker; implementations return no value.
	RatelessCode()
}

// IsRateless reports whether the codec's encoding is unbounded.
func IsRateless(c Codec) bool {
	_, ok := c.(Rateless)
	return ok
}

// Decoder incrementally consumes encoding packets until the source data is
// recoverable. This mirrors the paper's receiver: packets arrive in
// arbitrary order (carousel position, loss, layering), and the decoder
// "can detect when it has received enough encoding packets to reconstruct"
// (§5.1).
type Decoder interface {
	// Add supplies encoding packet i. It reports whether the source is
	// now recoverable. Duplicates and packets received after completion
	// are ignored (without error). The decoder may retain data.
	Add(i int, data []byte) (done bool, err error)
	// Done reports whether the source is recoverable.
	Done() bool
	// Received returns the number of distinct packets accepted so far.
	Received() int
	// Source recovers the k source packets into the decoder's SourceBuf
	// and returns it. It returns an error if the decoder is not Done.
	Source() ([]byte, error)
}

// ErrNotReady is returned by Source when not enough packets have arrived.
var ErrNotReady = errors.New("code: not enough packets received to decode")

// ReleaseCounter is an optional Decoder capability counting decode work:
// how many source or intermediate values the decoder has resolved from
// coded packets rather than received verbatim. A systematic decoder fed a
// lossless stream reports zero — every packet was stored verbatim — which
// is the property differential tests pin down and traces surface per
// receiver.
type ReleaseCounter interface {
	// Released returns the count of values resolved from coded packets so
	// far.
	Released() int
}

// CheckSrc validates the source packets handed to an encoder.
func CheckSrc(src [][]byte, k, packetLen int) error {
	if len(src) != k {
		return fmt.Errorf("code: got %d source packets, want %d", len(src), k)
	}
	for i, p := range src {
		if len(p) != packetLen {
			return fmt.Errorf("code: source packet %d has length %d, want %d", i, len(p), packetLen)
		}
	}
	return nil
}

// CheckPacket validates a Decoder.Add argument.
func CheckPacket(i int, data []byte, n, packetLen int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("code: packet index %d out of range [0,%d)", i, n)
	}
	if len(data) != packetLen {
		return fmt.Errorf("code: packet %d has length %d, want %d", i, len(data), packetLen)
	}
	return nil
}

// Split partitions data into k packets of packetLen bytes: views of data
// where it fills a packet, the rest one zero-padded copy. It returns an
// error if data does not fit.
func Split(data []byte, k, packetLen int) ([][]byte, error) {
	if k <= 0 || packetLen <= 0 {
		return nil, fmt.Errorf("code: invalid split k=%d packetLen=%d", k, packetLen)
	}
	if len(data) > k*packetLen {
		return nil, fmt.Errorf("code: %d bytes do not fit in %d packets of %d bytes", len(data), k, packetLen)
	}
	whole := len(data) / packetLen
	out := make([][]byte, k)
	for i := range whole {
		out[i] = data[i*packetLen : (i+1)*packetLen : (i+1)*packetLen]
	}
	if whole < k {
		tail := make([]byte, (k-whole)*packetLen)
		copy(tail, data[whole*packetLen:])
		for i := whole; i < k; i++ {
			out[i] = tail[(i-whole)*packetLen : (i-whole+1)*packetLen : (i-whole+1)*packetLen]
		}
	}
	return out, nil
}

// SourceBuf is the K·PacketLen buffer a decoder resolves source packet i
// into at [i·PacketLen, (i+1)·PacketLen), allocated at the first Slot.
type SourceBuf struct {
	K, PacketLen int
	buf          []byte
}

// Slot returns source packet i's bytes, zero until first written.
func (s *SourceBuf) Slot(i int) []byte {
	if s.buf == nil {
		s.buf = make([]byte, s.K*s.PacketLen)
	}
	return s.buf[i*s.PacketLen : (i+1)*s.PacketLen : (i+1)*s.PacketLen]
}

// Bytes returns the buffer, nil before the first Slot.
func (s *SourceBuf) Bytes() []byte { return s.buf }
