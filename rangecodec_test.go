package fountain

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/code"
)

// TestRangeEncoderDifferential: for every codec implementing
// code.RangeEncoder, EncodeRange(src, lo, hi) must be byte-identical to the
// corresponding slice of the full encoding — property-style over random
// [lo, hi) windows. The lazy fountain service depends on this exactness:
// a receiver decodes against the full-encoding definition while the server
// only ever materializes windows.
//
// The rateless codecs have no finite full encoding to slice; their
// reference is per-index generation, and the invariant becomes "batching
// does not change content" plus prefix consistency across overlapping
// windows.
//
// Every entry is also held to the code.RowEncoder contract the windows are
// built from: SourceOf(i) >= 0 exactly where the window aliases
// src[SourceOf(i)], and EncodeInto over Columns(src) into a zeroed buffer
// reproduces every other packet.
func TestRangeEncoderDifferential(t *testing.T) {
	const (
		k   = 120
		pl  = 64
		win = 40 // random windows per codec
	)
	rng := rand.New(rand.NewSource(2024))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
		rng.Read(src[i])
	}

	codecs := []struct {
		name string
		mk   func() (Codec, error)
	}{
		{"vandermonde", func() (Codec, error) { return NewVandermonde(k, 2*k, pl) }},
		{"cauchy", func() (Codec, error) { return NewCauchy(k, 2*k, pl) }},
		{"interleaved", func() (Codec, error) { return NewInterleaved(k, 30, 2, pl) }},
		{"lt", func() (Codec, error) { return NewLT(k, pl, 99, 0, 0) }},
		{"raptor", func() (Codec, error) { return NewRaptor(k, pl, 99, 0, 0, 0, 0) }},
	}
	heads := make(map[*byte]int, k) // first-byte identity of each source packet
	for i, p := range src {
		heads[&p[0]] = i
	}
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ranger, ok := c.(code.RangeEncoder)
			if !ok {
				t.Fatalf("%s does not implement code.RangeEncoder", tc.name)
			}
			rows := c.(code.RowEncoder)
			cols := rows.Columns(src)
			checkRow := func(i int, pkt []byte) {
				t.Helper()
				f, aliased := heads[&pkt[0]]
				if !aliased {
					f = -1
				}
				if got := rows.SourceOf(i); got != f {
					t.Fatalf("SourceOf(%d) = %d, but EncodeRange aliases source %d", i, got, f)
				}
				if !aliased {
					buf := make([]byte, pl)
					if rows.EncodeInto(buf, cols, i); !bytes.Equal(buf, pkt) {
						t.Fatalf("EncodeInto(%d) differs from EncodeRange", i)
					}
				}
			}
			if IsRateless(c) {
				// Reference: one-packet-at-a-time generation; one window over
				// the start of the stream (a systematic prefix, if any), the
				// rest drawn from deep inside the unbounded index space.
				for w := 0; w < win; w++ {
					lo, hi := 0, 2*k
					if w > 0 {
						lo = rng.Intn(1 << 30)
						hi = lo + 1 + rng.Intn(2*k)
					}
					got, err := ranger.EncodeRange(src, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					for i := lo; i < hi; i++ {
						one, err := ranger.EncodeRange(src, i, i+1)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got[i-lo], one[0]) {
							t.Fatalf("window [%d,%d): packet %d differs from single generation", lo, hi, i)
						}
						checkRow(i, one[0])
					}
				}
				return
			}
			full, err := c.Encode(src)
			if err != nil {
				t.Fatal(err)
			}
			n := c.N()
			// Always cover the boundary windows, then random ones.
			windows := [][2]int{{0, 0}, {0, n}, {k - 1, k + 1}, {n - 1, n}}
			for w := 0; w < win; w++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				windows = append(windows, [2]int{lo, hi})
			}
			for _, lohi := range windows {
				lo, hi := lohi[0], lohi[1]
				got, err := ranger.EncodeRange(src, lo, hi)
				if err != nil {
					t.Fatalf("EncodeRange[%d,%d): %v", lo, hi, err)
				}
				if len(got) != hi-lo {
					t.Fatalf("EncodeRange[%d,%d): %d packets", lo, hi, len(got))
				}
				for i := lo; i < hi; i++ {
					if !bytes.Equal(got[i-lo], full[i]) {
						t.Fatalf("window [%d,%d): packet %d differs from Encode", lo, hi, i)
					}
					checkRow(i, got[i-lo])
				}
			}
		})
	}
}
