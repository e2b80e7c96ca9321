package service

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestPaceIntervalRateAccuracy: across awkward (perRound, baseRate) pairs
// — non-divisor ratios, rates near and beyond the nanosecond floor — the
// effective rate implied by the rounded interval must sit within half a
// nanosecond per round of the request, and the interval must never fall to
// zero or get silently clamped to a magic 1ms.
func TestPaceIntervalRateAccuracy(t *testing.T) {
	cases := []struct{ perRound, baseRate int }{
		{1, 1}, {1, 3}, {1, 7}, {1, 512}, {1, 1000}, {1, 48_000},
		{1, 1_000_000}, {1, 333_333_333}, {1, 999_999_999},
		{3, 7}, {3, 1024}, {17, 4096}, {100, 2048}, {625, 48_000},
		{1250, 37}, {4096, 999}, {1_000_000, 3},
	}
	for _, tc := range cases {
		interval := paceInterval(tc.perRound, tc.baseRate)
		if interval < 1 {
			t.Fatalf("perRound=%d rate=%d: interval %v < 1ns", tc.perRound, tc.baseRate, interval)
		}
		// The ideal interval in ns; rounding may move it by at most 0.5ns.
		ideal := float64(tc.perRound) * 1e9 / float64(tc.baseRate)
		if diff := float64(interval) - ideal; diff > 0.5 || diff < -0.5 {
			t.Fatalf("perRound=%d rate=%d: interval %v is %.3fns from ideal %.3fns",
				tc.perRound, tc.baseRate, interval, diff, ideal)
		}
		// Effective rate implied by the interval: within 0.5ns/round of target.
		eff := float64(tc.perRound) * 1e9 / float64(interval)
		maxSkew := float64(tc.baseRate) * float64(tc.baseRate) / (float64(tc.perRound) * 2e9)
		if skew := eff - float64(tc.baseRate); skew > maxSkew+1e-9 || skew < -maxSkew-1e-9 {
			t.Fatalf("perRound=%d rate=%d: effective %.6f pps skews %.6f (bound %.6f)",
				tc.perRound, tc.baseRate, eff, skew, maxSkew)
		}
	}
	// Beyond one round per nanosecond the floor clamps — and Pace must
	// report the truthful achievable rate, not echo the request.
	if got := paceInterval(1, 2_000_000_000); got != 1 {
		t.Fatalf("2e9 pps: interval %v, want 1ns floor", got)
	}

	// The old formula's failure modes, pinned: 1500 pps truncated
	// 666666.67ns down to 666666ns (ran 0.0001%% fast); 3e9 pps hit the
	// <=0 clamp and ran at a silent 1000 pps. The rounded form fixes the
	// first and caps the second at the honest 1ns.
	if old := time.Second * 1 / time.Duration(1500); old == paceInterval(1, 1500) {
		t.Fatalf("truncated and rounded intervals agree at 1500 pps — regression pin is dead")
	}
	if paceInterval(1, 1500) != 666667 {
		t.Fatalf("1500 pps: interval %v, want 666667ns", paceInterval(1, 1500))
	}
}

// TestPaceEffectiveRate: Pace's reported effective rate must equal the
// rate its own interval achieves, for a real session in both single-layer
// and layered modes.
func TestPaceEffectiveRate(t *testing.T) {
	for _, layers := range []int{1, 4} {
		cfg := sessionConfig(proto.CodecTornadoA, 1, 1)
		cfg.Layers = layers
		sess, err := core.NewSession(randBytes(1, 40_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		interval, eff := Pace(sess, 1999)
		if interval != PaceInterval(sess, 1999) {
			t.Fatalf("layers=%d: Pace interval %v != PaceInterval %v",
				layers, interval, PaceInterval(sess, 1999))
		}
		perRound := 1
		if layers > 1 {
			blockSize := 1 << uint(layers-1)
			perRound = (sess.Codec().N() + blockSize - 1) / blockSize
		}
		want := float64(perRound) * 1e9 / float64(interval)
		if eff != want {
			t.Fatalf("layers=%d: effective %.9f, want %.9f", layers, eff, want)
		}
	}
}
