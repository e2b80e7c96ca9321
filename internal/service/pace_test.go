package service

import (
	"math/rand"
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

// TestOwed: the token-bucket arithmetic of one pop, case by case.
func TestOwed(t *testing.T) {
	const iv = 50 * time.Microsecond
	for _, tc := range []struct {
		name      string
		next, now time.Duration
		interval  time.Duration
		bound     int
		rounds    int
		newNext   time.Duration
		dropped   bool
	}{
		{"before the deadline", 100 * iv, 100*iv - 1, iv, 64, 0, 100 * iv, false},
		{"on the deadline", 100 * iv, 100 * iv, iv, 64, 1, 101 * iv, false},
		{"just short of the second", 100 * iv, 101*iv - 1, iv, 64, 1, 101 * iv, false},
		{"a late wake", 100 * iv, 100*iv + 900*time.Microsecond, iv, 64, 19, 119 * iv, false},
		{"exactly the bound", 0, 63 * iv, iv, 64, 64, 64 * iv, false},
		{"one over the bound", 0, 64 * iv, iv, 64, 64, 65 * iv, true},
		{"a 50 ms stall", 0, 50 * time.Millisecond, iv, 64, 64, 1001 * iv, true},
		{"a one-round bucket", 7 * iv, 10*iv + 1, iv, 1, 1, 11 * iv, true},
		{"the 1 ns floor", 5, 1_000_000, 1, 64, 64, 1_000_001, true},
	} {
		rounds, next, dropped := owed(tc.next, tc.now, tc.interval, tc.bound)
		if rounds != tc.rounds || next != tc.newNext || dropped != tc.dropped {
			t.Errorf("%s: owed = (%d, %v, %v), want (%d, %v, %v)", tc.name,
				rounds, next, dropped, tc.rounds, tc.newNext, tc.dropped)
		}
	}
}

// TestOwedTokenBucket: over a long run of randomly late wakes, a session
// is never served before a deadline, never more than the bound per pop, and
// in total never more than elapsed/interval + bound rounds (the bucket's
// ceiling); while no wake is later than the bucket is deep nothing is
// dropped and the total is at least elapsed/interval - 1 (the rate is
// reached); and whatever a too-late wake leaves unserved is exactly what it
// dropped.
func TestOwedTokenBucket(t *testing.T) {
	const iv, bound = 50 * time.Microsecond, 64
	for _, tc := range []struct {
		name    string
		maxLate time.Duration // wakes land up to this long after the deadline
		lossy   bool
	}{
		{"timer granularity", 900 * time.Microsecond, false},
		{"as deep as the bucket", (bound - 1) * iv, false},
		{"stalls past the bucket", 20 * time.Millisecond, true},
	} {
		rng := rand.New(rand.NewSource(1))
		var now, next time.Duration
		emitted, due, drops := int64(0), int64(0), 0
		for pops := 0; pops < 20_000; pops++ {
			now = max(now, next) + time.Duration(rng.Int63n(int64(tc.maxLate)+1))
			rounds, newNext, dropped := owed(next, now, iv, bound)
			if rounds < 1 || rounds > bound {
				t.Fatalf("%s: a due pop emits %d rounds, bound %d", tc.name, rounds, bound)
			}
			if newNext <= now || newNext > now+iv {
				t.Fatalf("%s: new deadline %v not within one interval after now %v", tc.name, newNext, now)
			}
			// Served or dropped, every deadline up to now is accounted for.
			skipped := int64((newNext-next)/iv) - int64(rounds)
			if (skipped > 0) != dropped || skipped < 0 {
				t.Fatalf("%s: skipped %d deadlines, dropped = %v", tc.name, skipped, dropped)
			}
			if dropped {
				drops++
			}
			emitted, due, next = emitted+int64(rounds), int64(now/iv)+1, newNext
			if emitted > due+bound {
				t.Fatalf("%s: %d rounds by %v, over the ceiling %d", tc.name, emitted, now, due+bound)
			}
			if !tc.lossy && emitted < due-1 {
				t.Fatalf("%s: %d rounds by %v, under the rate (%d due)", tc.name, emitted, now, due)
			}
		}
		if tc.lossy == (drops == 0) {
			t.Fatalf("%s: %d pops dropped debt", tc.name, drops)
		}
	}
}

// TestBurstRounds: the packet bound converts to whole rounds of the
// session at the carousel's own round size.
func TestBurstRounds(t *testing.T) {
	for _, tc := range []struct {
		codec  uint8
		layers int
	}{
		{proto.CodecTornadoA, 1}, {proto.CodecTornadoA, 4}, {proto.CodecLT, 1}, {proto.CodecLT, 4},
	} {
		cfg := sessionConfig(tc.codec, 1, 1)
		cfg.Layers = tc.layers
		sess, err := core.NewSession(randBytes(1, 15_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		car := core.NewCarousel(sess)
		if err := car.NextRound(func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if _, all := roundSize(sess); all != car.Sent() {
			t.Errorf("codec %d layers %d: roundSize says %d packets a round, the carousel sent %d",
				tc.codec, tc.layers, all, car.Sent())
		}
		if got, want := burstRounds(sess), max(1, maxBurst/car.Sent()); got != want {
			t.Errorf("codec %d layers %d: burstRounds = %d, want %d", tc.codec, tc.layers, got, want)
		}
	}
}
