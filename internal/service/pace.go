package service

import (
	"time"

	"repro/internal/core"
)

// PaceInterval returns the inter-round interval that makes the session's
// base layer emit approximately baseRate packets per second. In layered
// mode layer 0 sends one slot per reverse-binary block per round; the
// single-layer carousel sends exactly one packet per round, as does the
// base layer of a rateless session (whose unbounded "encoding" has no
// blocks to multiply by). baseRate <= 0 defaults to 512. Rounding to whole
// nanoseconds makes the effective rate — base-layer packets per round over
// the interval — differ slightly from the requested one; rates beyond one
// round per nanosecond are clamped to the 1ns floor.
func PaceInterval(sess *core.Session, baseRate int) time.Duration {
	perRound, _ := roundSize(sess)
	return paceInterval(perRound, baseRate)
}

// roundSize returns how many packets one carousel round emits on the base
// layer (what a rate paces) and across all layers (what a round costs to
// send). A single-layer carousel sends one packet per round. A layered one
// sends one base-layer slot per reverse-binary block, and across its layers
// every index of the encoding once (the One Level Property at the top
// level); a rateless session's unbounded "encoding" has a single block of
// 2^(g-1) fresh indices per round.
func roundSize(sess *core.Session) (base, all int) {
	g := sess.Config().Layers
	blockSize := 1 << uint(g-1)
	if g == 1 || sess.Rateless() {
		return 1, blockSize
	}
	n := sess.Codec().N()
	return (n + blockSize - 1) / blockSize, n // one slot per block per round
}

// paceInterval computes the per-round interval in nanoseconds with
// rounding. The old form — time.Second * perRound / baseRate in Duration
// arithmetic — truncated toward zero, skewing every non-divisor rate high
// (a requested 7000 pps with perRound=1 ran at 7000.05 pps; coarser
// perRound/baseRate ratios skewed further), and its interval<=0 guard
// clamped very high rates to 1ms, silently capping them at 1000 rounds/s.
// Rounding to the nearest nanosecond bounds the skew at half a nanosecond
// per round, and the floor is the honest 1ns minimum.
func paceInterval(perRound, baseRate int) time.Duration {
	if baseRate <= 0 {
		baseRate = 512
	}
	ns := (int64(perRound)*int64(time.Second) + int64(baseRate)/2) / int64(baseRate)
	if ns < 1 {
		ns = 1
	}
	return time.Duration(ns)
}

// maxBurst is the depth of every paced session's token bucket, in packets:
// the most one pop of the scheduler emits for a session, and so the most
// lateness (maxBurst packets' worth of intervals) a session can make up
// before the excess is dropped and counted in DebtDropped. A shard's timer
// sleep of tens of microseconds is honoured in 0.3-0.9 ms (go1.24, the
// 2-core reference box), so a 20 000 pkts/s single-packet-round session
// wakes owing 7-20 rounds; the parent's cap of 4 rounds per pop held it to
// 0.25x its rate. The bound has to clear those 20 with room for a GC pause,
// and the workload that limits it from above is udp-mixed-saturate, where
// every pop emits the full bound and a cheaper sender only buys socket
// loss: download_ms_p50 there, six alternating runs each, read a median of
// 269 ms at the parent, 271 at 16, 273 at 32 and 274 at 64 (PR 22; all
// inside the ≈ 10 % run-to-run spread), against +8 % at 128 when the issue
// was sized (291/283/298/392 ms, parent 245-295) — so 64, one sendmmsg
// chunk, is the largest value that costs nothing there (udp-raptor-paced
// reads 135-138 ms at 64 and at 128). A sleeping shard therefore sustains
// up to maxBurst / wake latency, about 64 000 pkts/s per session; above
// that the deadline is already past when the shard looks, so it never
// sleeps and serves the session by spinning.
const maxBurst = 64

// burstRounds is maxBurst in whole rounds of the session, at least one: a
// 1-packet rateless round and a 60-packet layered round get the same
// per-pop packet budget.
func burstRounds(sess *core.Session) int {
	_, all := roundSize(sess)
	return max(1, maxBurst/all)
}

// owed is the token-bucket arithmetic of one pop: given a session's
// earliest unserved deadline, the clock and its round interval, it returns
// how many rounds to emit now — one per deadline at or before now, the
// newest bound of them when more are due — the next unserved deadline, and
// whether older deadlines were dropped to hold the bound.
func owed(next, now, interval time.Duration, bound int) (rounds int, newNext time.Duration, dropped bool) {
	if next > now {
		return 0, next, false
	}
	n := int64((now-next)/interval) + 1
	if n > int64(bound) {
		next += time.Duration(n-int64(bound)) * interval
		n, dropped = int64(bound), true
	}
	return int(n), next + time.Duration(n)*interval, dropped
}
