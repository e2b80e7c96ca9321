package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/proto"
)

func carouselSession(t *testing.T, layers int) *Session {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	data := make([]byte, 30_000)
	rng.Read(data)
	cfg := DefaultConfig()
	cfg.Layers = layers
	cfg.SPInterval = 4
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCarouselSerialsAndFlags: the carousel must transmit on every layer,
// stamp dense per-layer serials, carry SP on at most one packet per layer
// per round at the SPInterval cadence, and count rounds/sent.
func TestCarouselSerialsAndFlags(t *testing.T) {
	sess := carouselSession(t, 4)
	car := NewCarousel(sess)
	next := map[int]uint32{}
	spCount := map[int]int{}
	spPerRound := 0
	for round := 0; round < 8; round++ {
		spThisRound := map[int]int{}
		err := car.NextRound(func(layer int, pkt []byte) error {
			h, _, err := proto.ParseHeader(pkt)
			if err != nil {
				return err
			}
			if int(h.Group) != layer {
				t.Fatalf("group %d on layer %d", h.Group, layer)
			}
			next[layer]++
			if h.Serial != next[layer] {
				t.Fatalf("layer %d serial %d, want %d", layer, h.Serial, next[layer])
			}
			if h.Flags&proto.FlagSP != 0 {
				spThisRound[layer]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for layer, n := range spThisRound {
			if n > 1 {
				t.Fatalf("round %d layer %d carried %d SPs", round, layer, n)
			}
			spCount[layer] += n
			spPerRound++
		}
	}
	// SPInterval=4: layer 0 SPs at rounds 0 and 4; layer 1 at round 0.
	if spCount[0] != 2 || spCount[1] != 1 {
		t.Fatalf("SPs per layer = %v, want 2 on layer 0 and 1 on layer 1", spCount)
	}
	for l := 0; l < 4; l++ {
		if next[l] == 0 {
			t.Fatalf("layer %d never transmitted", l)
		}
	}
	if car.Round() != 8 {
		t.Fatalf("round = %d, want 8", car.Round())
	}
	sent := 0
	for _, n := range next {
		sent += int(n)
	}
	if car.Sent() != sent {
		t.Fatalf("sent = %d, delivered %d", car.Sent(), sent)
	}
	if spPerRound == 0 {
		t.Fatal("no SPs observed")
	}
}

// TestCarouselIndependentStreams: two carousels over one session are
// independent — same schedule, separate serial state — which is what lets a
// service restart a session's sender without disturbing the session.
func TestCarouselIndependentStreams(t *testing.T) {
	sess := carouselSession(t, 2)
	a, b := NewCarousel(sess), NewCarousel(sess)
	var pa, pb [][]byte
	collect := func(dst *[][]byte) func(int, []byte) error {
		return func(_ int, pkt []byte) error {
			cp := make([]byte, len(pkt))
			copy(cp, pkt)
			*dst = append(*dst, cp)
			return nil
		}
	}
	for i := 0; i < 6; i++ {
		if err := a.NextRound(collect(&pa)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := b.NextRound(collect(&pb)); err != nil {
			t.Fatal(err)
		}
	}
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("stream lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if !bytes.Equal(pa[i], pb[i]) {
			t.Fatalf("packet %d differs between equivalent carousels", i)
		}
	}
}

// TestCarouselEmitError: an emit failure must propagate out of NextRound.
func TestCarouselEmitError(t *testing.T) {
	sess := carouselSession(t, 1)
	car := NewCarousel(sess)
	boom := bytes.ErrTooLarge
	if err := car.NextRound(func(int, []byte) error { return boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestCarouselPhaseOffset: a phased carousel must emit exactly the packet
// stream of an unphased one fast-forwarded by `phase` rounds — same
// indices, same SP/burst flags — while stamping its own serials from 1
// (serials belong to the sender's stream, not the schedule position).
func TestCarouselPhaseOffset(t *testing.T) {
	for _, layers := range []int{1, 4} {
		sess := carouselSession(t, layers)
		const phase = 5
		ref, phased := NewCarousel(sess), NewCarouselAt(sess, phase)
		if phased.Phase() != phase || phased.Round() != phase || phased.Rounds() != 0 {
			t.Fatalf("phase accessors: %d %d %d", phased.Phase(), phased.Round(), phased.Rounds())
		}
		type emission struct {
			layer int
			idx   uint32
			flags uint8
		}
		collect := func(car *Carousel, rounds int) []emission {
			var out []emission
			for i := 0; i < rounds; i++ {
				if err := car.NextRound(func(layer int, pkt []byte) error {
					h, _, err := proto.ParseHeader(pkt)
					if err != nil {
						return err
					}
					out = append(out, emission{layer, h.Index, h.Flags})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		refEm := collect(ref, phase+3)
		gotEm := collect(phased, 3)
		if phased.Rounds() != 3 {
			t.Fatalf("Rounds() = %d after 3 rounds", phased.Rounds())
		}
		// Locate where the phased stream should start inside the reference:
		// skip the first `phase` rounds' emissions.
		skip := 0
		{
			probe := NewCarousel(sess)
			for i := 0; i < phase; i++ {
				probe.NextRound(func(int, []byte) error { return nil })
			}
			skip = probe.Sent()
		}
		want := refEm[skip:]
		if len(gotEm) != len(want) {
			t.Fatalf("layers=%d: %d emissions, want %d", layers, len(gotEm), len(want))
		}
		for i := range want {
			if gotEm[i] != want[i] {
				t.Fatalf("layers=%d emission %d: %+v, want %+v", layers, i, gotEm[i], want[i])
			}
		}
	}
}

// TestCarouselNegativePhaseClamped: a negative phase behaves as 0.
func TestCarouselNegativePhaseClamped(t *testing.T) {
	sess := carouselSession(t, 1)
	car := NewCarouselAt(sess, -3)
	if car.Phase() != 0 || car.Round() != 0 {
		t.Fatalf("negative phase not clamped: %d/%d", car.Phase(), car.Round())
	}
}
