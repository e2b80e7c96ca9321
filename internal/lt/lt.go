// Package lt implements a Luby Transform code: the rateless realization of
// the paper's ideal digital fountain (§3, §9). Where the repository's
// fixed-rate codecs stretch k source packets into n = 2k encoding packets
// and force the carousel to cycle, an LT encoder draws encoding packets
// from an effectively unlimited index space — packet i's degree and
// neighbor set are a pure function of (session seed, i), so any sender that
// knows the seed can produce packet i independently, and any k(1+ε)
// distinct packets reconstruct the source.
//
// The degree distribution is the robust soliton ("Primer and Recent
// Developments on Fountain Codes", Qureshi et al.): the ideal soliton
// ρ(1) = 1/k, ρ(d) = 1/(d(d-1)) keeps the expected ripple at one symbol per
// recovery, and the correction τ concentrates extra mass on degree 1..D
// (D ≈ k/R, R = c·ln(k/δ)·√k) so the ripple survives variance and the
// decoder fails with probability at most δ after k + O(√k·ln²(k/δ))
// packets. Tunables c and δ trade average degree against ripple robustness.
//
// Encoding and decoding are the shared encoder and decoder (internal/peel)
// with no static equations and no systematic prefix: a packet is the XOR of
// its neighbour set over the sources, and the decoder keeps the received
// packets until k of them, analyses the system once by inactivation decoding
// (bitmat.Solver), and solves at the packet that gives the system full rank
// instead of stalling where belief-propagation peeling's ripple would empty.
package lt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/code"
	"repro/internal/peel"
)

// Default degree-distribution parameters: a moderate spike (c) and failure
// target (δ) that keep the average degree near ln(k) while leaving the
// peeling decoder a comfortable ripple at k in the thousands.
const (
	DefaultC     = 0.05
	DefaultDelta = 0.5
)

// Codec is a rateless LT code over fixed-size packets. It is immutable
// after construction and safe for concurrent use; the degree CDF is built
// once and shared by every encoder and decoder of the session.
type Codec struct {
	// Code is what every decoder of the session runs on, and the encoder
	// the codec satisfies code.RowEncoder through (its fields K, N and
	// PacketLen are shadowed by the methods).
	peel.Code
	k         int
	packetLen int
	c         float64
	delta     float64
	// draw is the robust soliton over the k sources, Code's neighbour
	// function.
	draw peel.Sampler
}

// New constructs the codec for k source packets of packetLen bytes. The
// seed is the advance agreement between sender and receivers (§5.1): both
// sides derive every packet's degree and neighbor set from it. c <= 0 or
// delta outside (0,1) select the defaults.
func New(k, packetLen int, seed int64, c, delta float64) (*Codec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lt: invalid k=%d", k)
	}
	if packetLen <= 0 {
		return nil, fmt.Errorf("lt: invalid packetLen=%d", packetLen)
	}
	if c <= 0 {
		c = DefaultC
	}
	if delta <= 0 || delta >= 1 {
		delta = DefaultDelta
	}
	lc := &Codec{k: k, packetLen: packetLen, c: c, delta: delta}
	lc.draw = peel.Sampler{Seed: seed, CDF: robustSolitonCDF(k, c, delta), L: k}
	lc.Code = peel.Code{K: k, N: code.UnboundedN, PacketLen: packetLen, Draw: &lc.draw}
	return lc, nil
}

// robustSolitonCDF builds the cumulative robust soliton distribution
// μ(d) = (ρ(d) + τ(d)) / β over degrees 1..k.
func robustSolitonCDF(k int, c, delta float64) []float64 {
	fk := float64(k)
	pdf := make([]float64, k+1) // pdf[d], d = 1..k
	pdf[1] = 1 / fk
	for d := 2; d <= k; d++ {
		pdf[d] = 1 / (float64(d) * float64(d-1))
	}
	// τ: R/(d·k) for d < D, R·ln(R/δ)/k at the spike D = round(k/R). For
	// tiny k the spike can collapse onto degree 1 or exceed k; the clamps
	// degrade gracefully to the ideal soliton.
	R := c * math.Log(fk/delta) * math.Sqrt(fk)
	if R > 1 {
		D := int(math.Round(fk / R))
		if D < 1 {
			D = 1
		}
		if D > k {
			D = k
		}
		for d := 1; d < D; d++ {
			pdf[d] += R / (float64(d) * fk)
		}
		pdf[D] += R * math.Log(R/delta) / fk
	}
	cdf := make([]float64, k)
	sum := 0.0
	for d := 1; d <= k; d++ {
		sum += pdf[d]
		cdf[d-1] = sum
	}
	// Normalize by β = Σ(ρ+τ) and pin the tail so a draw of u → 1 can
	// never fall off the table.
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[k-1] = 1
	return cdf
}

// Name implements code.Codec.
func (c *Codec) Name() string { return "lt" }

// K implements code.Codec.
func (c *Codec) K() int { return c.k }

// N implements code.Codec: the encoding is unbounded; every index below
// the code.UnboundedN sentinel is a valid encoding packet.
func (c *Codec) N() int { return code.UnboundedN }

// PacketLen implements code.Codec.
func (c *Codec) PacketLen() int { return c.packetLen }

// Params returns the degree-distribution tunables (c, δ) in effect.
func (c *Codec) Params() (cc, delta float64) { return c.c, c.delta }

// Seed returns the session seed the packet streams derive from.
func (c *Codec) Seed() int64 { return c.draw.Seed }

// RatelessCode implements code.Rateless.
func (c *Codec) RatelessCode() {}

// ErrUnbounded is returned by Encode: a rateless code has no finite "full
// encoding" to materialize.
var ErrUnbounded = errors.New("lt: rateless codec has no finite encoding; use EncodeRange")

// Encode implements code.Codec by failing: callers must use EncodeRange
// (core sessions detect the Rateless capability and never call Encode).
func (c *Codec) Encode(src [][]byte) ([][]byte, error) { return nil, ErrUnbounded }

// Degree returns encoding packet index's degree — deterministic, in
// [1, k].
func (c *Codec) Degree(index uint32) int { return c.draw.Degree(index) }

// NeighborsInto writes encoding packet index's neighbor set — the source
// packets XORed into it — into buf (reused if capacity allows) and returns
// it. The set is deterministic in (seed, index, k), duplicate-free, and
// every entry is in [0, k).
func (c *Codec) NeighborsInto(index uint32, buf []int) []int {
	return c.draw.NeighborsInto(index, buf)
}

// NewDecoder implements code.Codec.
func (c *Codec) NewDecoder() code.Decoder { return peel.NewDecoder(&c.Code) }

// EncodeRange implements code.RangeEncoder.
func (c *Codec) EncodeRange(src [][]byte, lo, hi int) ([][]byte, error) {
	return code.EncodeRows(c, src, lo, hi)
}

// Interface conformance.
var (
	_ code.Codec        = (*Codec)(nil)
	_ code.RangeEncoder = (*Codec)(nil)
	_ code.Rateless     = (*Codec)(nil)
)
