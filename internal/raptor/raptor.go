// Package raptor implements a Raptor-style precoded systematic fountain
// code: the composition the fountain-codes survey presents as the fix for
// LT's ln(k) decoding cost. A sparse Tornado-style precode (internal/
// tornado's heavy-tail bipartite layer) extends the k source packets with
// s check packets into L = k+s intermediate symbols; a *weakened* robust
// soliton LT code over those intermediates generates the repair stream.
//
// Weakening means the inner degree distribution is truncated at a small
// constant maxD with the tail mass folded into the final spike, so the
// average degree is O(1) instead of O(ln k) and encode/decode run in
// linear time. Truncation alone would strand a small fraction of
// intermediates uncovered; the precode's check equations — known to both
// sides by construction, never transmitted — supply exactly the extra
// relations the peeling decoder needs to clean up that residue, which is
// why the O(k·√k) inactivation fallback drops out of the hot path.
//
// The code is systematic (SNIPPETS.md snippet 2's systematic=True idiom):
// encoding packet i < k IS source packet i, and repair packets i >= k are
// inner-coded over the intermediates. A receiver that loses nothing
// therefore reconstructs the file with zero XOR work — the paper's ideal
// "packets straight off the wire" path — while lossy receivers decode
// from any ≈1.02k distinct packets.
package raptor

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/code"
	"repro/internal/peel"
	"repro/internal/tornado"
)

// Default parameters. The inner distribution reuses the LT robust-soliton
// shape (c, δ) but truncated at DefaultMaxDegree; the precode sizes its
// check side as a small fraction of k. Tuned empirically at k ∈ {1000,
// 10000} — see EXPERIMENTS.md.
const (
	DefaultC     = 0.03
	DefaultDelta = 0.5
	// precodeMaxDegree caps the heavy-tail left degrees of the precode
	// graph; the mean left degree is ≈ 3, so precoding costs ≈ 3k XOR
	// rows regardless of the check count.
	precodeMaxDegree = 8
)

// DefaultMaxDegree returns the default inner-code degree truncation for k
// sources: ≈ 2√k, clamped to [16, 200]. The average inner degree is
// ≈ ln(maxD) + 2 — still effectively constant in k, the linear-time
// property — while the design overhead ε = 4/(maxD-5) shrinks as maxD
// grows. The √k scaling matches the finite-length sweet spot measured in
// EXPERIMENTS.md: at small k a low truncation keeps degree variance from
// swamping the ripple, at large k the tighter ε wins (64 at k=1000, 200
// at k=10000). The cap bounds the per-packet work for huge blocks.
func DefaultMaxDegree(k int) int {
	d := int(math.Ceil(2 * math.Sqrt(float64(k))))
	if d < 16 {
		d = 16
	}
	if d > 200 {
		d = 200
	}
	return d
}

// DefaultChecks returns the default precode check count for k sources
// under an inner code truncated at maxD. The coupling is the Raptor
// design rule: the weakened distribution's BP recovery stalls once its
// coverage rate N/L drops below ≈1, so the precode redundancy must stay
// in proportion to the design overhead ε = 4/(maxD-5) — S ≈ (ε/4)·k
// covers the stranded residue while an oversized precode inflates L and
// starves the inner ripple outright (S = k/10 costs ≈0.12 extra
// overhead at k=2000). Check equations are never transmitted and
// contribute rank for free; the cost of S is decoder memory and endgame
// width, not wire overhead.
func DefaultChecks(k, maxD int) int {
	if maxD < 8 {
		maxD = 8
	}
	s := k/(maxD-5) + 8
	if s < 2 {
		s = 2
	}
	return s
}

// Codec is the precoded rateless code over fixed-size packets. Immutable
// after construction and safe for concurrent use; the degree CDF is built
// in New, the precode graph at its first use, and both are shared by every
// encoder and decoder of the session.
type Codec struct {
	// Code is what every decoder of the session runs on, and the encoder
	// the codec satisfies code.RowEncoder through (its fields K, N and
	// PacketLen are shadowed by the methods). CheckSrc()[j] lists the
	// sources XORed into intermediate k+j and builds the precode graph at
	// its first call — a decoder's first repair packet, or Columns — so a
	// sender or receiver of only the systematic prefix never builds it.
	// Draw points at draw, the truncated robust soliton over the l
	// intermediates.
	peel.Code
	k         int
	packetLen int
	c         float64
	delta     float64
	s         int // precode checks
	maxD      int // inner-code degree truncation
	l         int // k + s intermediate symbols
	draw      peel.Sampler

	// window is EncodeRange's one-slot cache: the intermediates of the last
	// source slice it was given. It goes once the benchmark's traced replay
	// encodes through EncodeInto instead of an EncodeRange(src, i, i+1) per
	// emitted index (ROADMAP, benchmark v2 item (2)); until then such a
	// one-index window must not recompute the intermediates.
	window atomic.Pointer[window]
}

// window is a source slice and its intermediates.
type window struct{ src, cols [][]byte }

// New constructs the codec for k source packets of packetLen bytes. seed
// is the advance agreement between sender and receivers: precode graph,
// degrees, and neighbor sets all derive from it. c <= 0, delta outside
// (0,1), checks <= 0, or maxD <= 0 select the defaults; checks and maxD
// are clamped to sane ranges so quantized wire parameters always yield a
// working codec.
func New(k, packetLen int, seed int64, c, delta float64, checks, maxD int) (*Codec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("raptor: invalid k=%d", k)
	}
	if packetLen <= 0 {
		return nil, fmt.Errorf("raptor: invalid packetLen=%d", packetLen)
	}
	if c <= 0 {
		c = DefaultC
	}
	if delta <= 0 || delta >= 1 {
		delta = DefaultDelta
	}
	if maxD <= 0 {
		maxD = DefaultMaxDegree(k)
	}
	if maxD < 2 {
		maxD = 2
	}
	if checks <= 0 {
		checks = DefaultChecks(k, maxD)
	}
	if checks < 2 {
		checks = 2
	}
	if checks > k+4 {
		checks = k + 4
	}
	l := k + checks
	if maxD > l {
		maxD = l
	}
	rc := &Codec{
		k: k, packetLen: packetLen,
		c: c, delta: delta, s: checks, maxD: maxD, l: l,
	}
	rc.draw = peel.Sampler{Seed: seed, CDF: truncatedSolitonCDF(l, maxD, c, delta), L: l}
	// A distinct stream for the graph so precode wiring is decorrelated
	// from the inner-code neighbor draws sharing the session seed.
	precodeSeed := seed ^ 0x5DEECE66D1CE4E5B
	rc.Code = peel.Code{
		K: k, N: code.UnboundedN, PacketLen: packetLen, Systematic: k, Verbatim: k,
		Draw: &rc.draw,
		CheckSrc: sync.OnceValue(func() [][]int32 {
			return tornado.PrecodeGraph(k, checks, precodeMaxDegree, precodeSeed)
		}),
	}
	return rc, nil
}

// truncatedSolitonCDF is the weakened inner distribution, the Raptor
// paper's derivation from the soliton family:
//
//	Ω(x) ∝ μ·x + Σ_{d=2}^{D} x^d/(d(d-1)) + x^{D+1}/D,  D = maxD-1
//
// i.e. the ideal soliton truncated at D with its tail mass Σ_{d>D}
// 1/(d(d-1)) = 1/D folded into a spike at D+1, plus an explicit degree-1
// mass μ = ε/2 + (ε/2)², ε = 4/(D-4). Truncation makes the average
// degree ≈ ln(D) + 2 — a constant in k, the linear-time property — at
// the price of stranding a small residue the precode peels. The μ term
// is what a plain truncated *robust* soliton lacks: it seeds the ripple
// at reception rates below L (a robust soliton's ripple only ignites
// near L received symbols, which would forfeit the precode's rank
// advantage entirely). The robust-soliton τ(1) = R/L ripple-insurance
// term from the (c, δ) tunables is kept as a floor on μ, so the wire
// parameters shared with the LT codec remain live knobs.
func truncatedSolitonCDF(l, maxD int, c, delta float64) []float64 {
	d := maxD - 1
	eps := 1.0
	if d >= 5 {
		eps = 4.0 / float64(d-4)
	}
	mu := eps/2 + eps*eps/4
	if r := c * math.Log(float64(l)/delta) * math.Sqrt(float64(l)); r/float64(l) > mu {
		mu = r / float64(l)
	}
	pdf := make([]float64, maxD+1)
	pdf[1] = mu + 1/float64(l)
	for i := 2; i <= d; i++ {
		pdf[i] = 1 / (float64(i) * float64(i-1))
	}
	if d >= 1 {
		pdf[maxD] += 1 / float64(d)
	}
	cdf := make([]float64, maxD)
	sum := 0.0
	for i := 1; i <= maxD; i++ {
		sum += pdf[i]
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[maxD-1] = 1
	return cdf
}

// Name implements code.Codec.
func (c *Codec) Name() string { return "raptor" }

// K implements code.Codec.
func (c *Codec) K() int { return c.k }

// N implements code.Codec: the encoding is unbounded.
func (c *Codec) N() int { return code.UnboundedN }

// PacketLen implements code.Codec.
func (c *Codec) PacketLen() int { return c.packetLen }

// Params returns the inner degree-distribution tunables (c, δ) in effect.
func (c *Codec) Params() (cc, delta float64) { return c.c, c.delta }

// Checks returns the precode check count s.
func (c *Codec) Checks() int { return c.s }

// MaxDegree returns the inner-code degree truncation point.
func (c *Codec) MaxDegree() int { return c.maxD }

// Intermediates returns L = k + s, the inner code's symbol space.
func (c *Codec) Intermediates() int { return c.l }

// Seed returns the session seed the packet streams derive from.
func (c *Codec) Seed() int64 { return c.draw.Seed }

// RatelessCode implements code.Rateless.
func (c *Codec) RatelessCode() {}

// ErrUnbounded is returned by Encode: a rateless code has no finite "full
// encoding" to materialize.
var ErrUnbounded = errors.New("raptor: rateless codec has no finite encoding; use EncodeRange")

// Encode implements code.Codec by failing: callers must use EncodeRange.
func (c *Codec) Encode(src [][]byte) ([][]byte, error) { return nil, ErrUnbounded }

// Degree returns encoding packet index's inner degree — deterministic,
// in [1, maxD]; systematic indices report 1.
func (c *Codec) Degree(index uint32) int {
	if int64(index) < int64(c.k) {
		return 1
	}
	return c.draw.Degree(index)
}

// NeighborsInto writes encoding packet index's neighbor set over the
// intermediate symbol space [0, L) into buf (reused if capacity allows)
// and returns it. Systematic indices (index < k) are degree-1: the packet
// is intermediate `index` itself. Repair indices draw a truncated-soliton
// degree and that many distinct intermediates from the shared sampler.
func (c *Codec) NeighborsInto(index uint32, buf []int) []int {
	if int64(index) < int64(c.k) {
		return append(buf[:0], int(index))
	}
	return c.draw.NeighborsInto(index, buf)
}

// NewDecoder implements code.Codec.
func (c *Codec) NewDecoder() code.Decoder { return peel.NewDecoder(&c.Code) }

// EncodeRange implements code.RangeEncoder. The intermediates of src are
// kept from one call to the next while src is the same slice (the address
// of src[0] and its length), so the packets under one slice must not change
// between calls.
func (c *Codec) EncodeRange(src [][]byte, lo, hi int) ([][]byte, error) {
	return code.EncodeRows(windowed{c}, src, lo, hi)
}

// windowed is the codec with its intermediates read through the window.
type windowed struct{ *Codec }

func (w windowed) Columns(src [][]byte) [][]byte {
	if last := w.window.Load(); last != nil && len(last.src) == len(src) && &last.src[0] == &src[0] {
		return last.cols
	}
	cols := w.Code.Columns(src)
	w.window.Store(&window{src, cols})
	return cols
}

// Interface conformance.
var (
	_ code.Codec        = (*Codec)(nil)
	_ code.RangeEncoder = (*Codec)(nil)
	_ code.Rateless     = (*Codec)(nil)
)
