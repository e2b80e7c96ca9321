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
// blocks to multiply by). baseRate <= 0 defaults to 512.
func PaceInterval(sess *core.Session, baseRate int) time.Duration {
	interval, _ := Pace(sess, baseRate)
	return interval
}

// Pace is PaceInterval returning also the effective base-layer rate the
// interval actually achieves, in packets per second. Rounding the interval
// to whole nanoseconds makes the effective rate differ slightly from the
// requested one; rates beyond one round per nanosecond are clamped to the
// 1ns floor. Callers that advertise or log a rate should use the effective
// one — it is the truth the wire will show.
func Pace(sess *core.Session, baseRate int) (time.Duration, float64) {
	perRound := 1 // single-layer randomized carousel: one packet per round
	if g := sess.Config().Layers; g > 1 && !sess.Rateless() {
		n := sess.Codec().N()
		blockSize := 1 << uint(g-1)
		perRound = (n + blockSize - 1) / blockSize // one slot per block per round
	}
	interval := paceInterval(perRound, baseRate)
	return interval, float64(perRound) * float64(time.Second) / float64(interval)
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
