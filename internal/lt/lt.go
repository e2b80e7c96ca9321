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
// packets. c = 0.05 and δ = 0.5 are fixed: the code is named by (k, packet
// length, seed) alone, and the golden neighbour pins hold the distribution.
//
// Encoding and decoding are the shared encoder and decoder (internal/peel)
// with no static equations and no systematic prefix: a packet is the XOR of
// its neighbour set over the sources, and the decoder keeps the received
// packets until k of them, analyses the system once by inactivation decoding
// (bitmat.Solver), and solves at the packet that gives the system full rank
// instead of stalling where belief-propagation peeling's ripple would empty.
package lt

import (
	"fmt"
	"math"

	"repro/internal/code"
	"repro/internal/peel"
)

// The degree-distribution parameters: a moderate spike (c) and failure
// target (δ) that keep the average degree near ln(k) while leaving the
// peeling decoder a comfortable ripple at k in the thousands.
const (
	solitonC     = 0.05
	solitonDelta = 0.5
)

// Codec is a rateless LT code over fixed-size packets. It is immutable
// after construction and safe for concurrent use; the degree CDF is built
// once and shared by every encoder and decoder of the session.
type Codec struct {
	// Code is what every decoder of the session runs on, and the sizes,
	// encoder and decoder the codec satisfies code.Codec through.
	peel.Code
	// draw is the robust soliton over the k sources, Code's neighbour
	// function.
	draw peel.Sampler
}

// New constructs the codec for k source packets of packetLen bytes. The
// seed is the advance agreement between sender and receivers (§5.1): both
// sides derive every packet's degree and neighbor set from it.
func New(k, packetLen int, seed int64) (*Codec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lt: invalid k=%d", k)
	}
	if packetLen <= 0 {
		return nil, fmt.Errorf("lt: invalid packetLen=%d", packetLen)
	}
	lc := &Codec{}
	lc.draw = peel.Sampler{Seed: seed, CDF: robustSolitonCDF(k), L: k}
	lc.Code = peel.Code{Sources: k, Indices: code.UnboundedN, PacketBytes: packetLen, Draw: &lc.draw}
	return lc, nil
}

// robustSolitonCDF builds the cumulative robust soliton distribution
// μ(d) = (ρ(d) + τ(d)) / β over degrees 1..k.
func robustSolitonCDF(k int) []float64 {
	fk := float64(k)
	pdf := make([]float64, k+1) // pdf[d], d = 1..k
	pdf[1] = 1 / fk
	for d := 2; d <= k; d++ {
		pdf[d] = 1 / (float64(d) * float64(d-1))
	}
	// τ: R/(d·k) for d < D, R·ln(R/δ)/k at the spike D = round(k/R). Below
	// R = 1 (tiny k) it is the ideal soliton; above, 1 < R ≤ 2k keeps D in
	// [1, k].
	R := solitonC * math.Log(fk/solitonDelta) * math.Sqrt(fk)
	if R > 1 {
		D := int(math.Round(fk / R))
		for d := 1; d < D; d++ {
			pdf[d] += R / (float64(d) * fk)
		}
		pdf[D] += R * math.Log(R/solitonDelta) / fk
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

// Seed returns the session seed the packet streams derive from.
func (c *Codec) Seed() int64 { return c.draw.Seed }

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

// EncodeRange implements code.RangeEncoder.
func (c *Codec) EncodeRange(src [][]byte, lo, hi int) ([][]byte, error) {
	return code.EncodeRows(c, src, lo, hi)
}

// Interface conformance.
var (
	_ code.Codec        = (*Codec)(nil)
	_ code.RangeEncoder = (*Codec)(nil)
)
