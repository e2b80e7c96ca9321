package repro

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/code"
	"repro/internal/rs"
	"repro/internal/tornado"
)

// Entry is one fixed-rate code of the Tables 2–3 workload, at n = 2k.
type Entry struct {
	Name string
	// New builds the code over k packets of pl bytes; seed picks a
	// Tornado graph and is ignored by Reed-Solomon.
	New func(k, pl int, seed int64) (code.Codec, error)
	rs  bool
	// maxKB bounds the tables' file sizes (0: none): past it the paper
	// reports Vandermonde as "not available" (its runs became intractable
	// at 4MB; the O(k^2) setup plus O(k^3) decode do the same to us).
	maxKB int
}

// Roster is the fixed-rate codes Tables 2–3 compare, in column order.
var Roster = []Entry{
	{Name: "rs-vandermonde", rs: true, maxKB: 2048, New: func(k, pl int, _ int64) (code.Codec, error) { return rs.NewVandermonde(k, 2*k, pl) }},
	{Name: "rs-cauchy", rs: true, New: func(k, pl int, _ int64) (code.Codec, error) { return rs.NewCauchy(k, 2*k, pl) }},
	{Name: "tornado-a", New: func(k, pl int, seed int64) (code.Codec, error) { return tornado.New(tornado.A(), k, 2*k, pl, seed) }},
	{Name: "tornado-b", New: func(k, pl int, seed int64) (code.Codec, error) { return tornado.New(tornado.B(), k, 2*k, pl, seed) }},
}

// Order returns e's Table 3 reception of a k-packet code: a random order
// over all n = 2k packets for Tornado (the decoder stops early), and k/2
// random source packets topped up to k with random repair packets for the
// MDS Reed-Solomon codes (any k of n recover the source; odd k too).
func (e Entry) Order(rng *rand.Rand, k int) []int {
	if !e.rs {
		return rng.Perm(2 * k)
	}
	order := append(make([]int, 0, k), rng.Perm(k)[:k/2]...)
	for _, j := range rng.Perm(k)[:k-k/2] {
		order = append(order, k+j)
	}
	return order
}

// Corpus returns k pseudo-random source packets of pl bytes drawn from rng.
func Corpus(rng *rand.Rand, k, pl int) [][]byte {
	buf := make([]byte, k*pl)
	rng.Read(buf)
	out := make([][]byte, k)
	for i := range out {
		out[i] = buf[i*pl : (i+1)*pl]
	}
	return out
}

// Decode is the one decode every timing surface measures: it builds a
// decoder for c, adds packet enc[j] under index base+j for each j of order
// until the decoder is done, rebuilds the source, and returns the number
// of packets that took. It fails when Add does, or when order runs out
// before the decode completes.
func Decode(c code.Codec, enc [][]byte, base int, order []int) (int, error) {
	d := c.NewDecoder()
	for n, j := range order {
		done, err := d.Add(base+j, enc[j])
		if err != nil {
			return 0, err
		}
		if done {
			_, err = d.Source()
			return n + 1, err
		}
	}
	return 0, fmt.Errorf("repro: %s k=%d: not decodable from %d packets", c.Name(), c.K(), len(order))
}

// timeEntry builds e's code over k packets of the tables' packet length
// and times one Encode of src by wall clock and, when decode is set, one
// Decode of a fresh Table 3 reception drawn from rng.
func timeEntry(e Entry, k int, seed int64, src [][]byte, rng *rand.Rand, decode bool) (enc, dec time.Duration, err error) {
	c, err := e.New(k, packetLen, seed)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	coded, err := code.EncodeAll(c, src)
	enc = time.Since(start)
	if err != nil || !decode {
		return enc, 0, err
	}
	order := e.Order(rng, k)
	start = time.Now()
	_, err = Decode(c, coded, 0, order)
	return enc, time.Since(start), err
}

// entry returns the roster entry named name.
func entry(name string) Entry {
	for _, e := range Roster {
		if e.Name == name {
			return e
		}
	}
	panic("repro: no roster entry " + name)
}

// Table1 prints the qualitative property comparison of Tornado vs
// Reed-Solomon codes, with measured evidence for the scaling claims.
func Table1(w io.Writer, o Options) error {
	fprintf(w, "Table 1: Properties of Tornado vs Reed-Solomon codes\n")
	fprintf(w, "%-22s %-28s %-28s\n", "", "Tornado", "Reed-Solomon")
	fprintf(w, "%-22s %-28s %-28s\n", "Reception overhead", "> 0 required (measured below)", "0")
	fprintf(w, "%-22s %-28s %-28s\n", "Encoding time", "(k+l)·ln(1/eps)·P", "k·(1+l)·P")
	fprintf(w, "%-22s %-28s %-28s\n", "Decoding time", "(k+l)·ln(1/eps)·P", "k·(1+x)·P")
	fprintf(w, "%-22s %-28s %-28s\n", "Basic operation", "simple XOR", "field operations")
	fprintf(w, "\nMeasured scaling (encode time ratio when k doubles; linear=2x, quadratic=4x):\n")
	rng := rand.New(rand.NewSource(o.Seed))
	var prevT, prevC time.Duration
	for _, k := range []int{250, 500, 1000} {
		src := Corpus(rng, k, packetLen)
		cDur, _, err := timeEntry(entry("rs-cauchy"), k, o.Seed, src, rng, false)
		if err != nil {
			return err
		}
		tDur, _, err := timeEntry(entry("tornado-a"), k, o.Seed, src, rng, false)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("  k=%-6d tornado-a=%-10s cauchy=%-10s", k, fmtDur(tDur), fmtDur(cDur))
		if prevT > 0 {
			line += fmt.Sprintf("  growth: tornado %.1fx, cauchy %.1fx", float64(tDur)/float64(prevT), float64(cDur)/float64(prevC))
		}
		fprintf(w, "%s\n", line)
		prevT, prevC = tDur, cDur
	}
	return nil
}

// Table2 regenerates the encoding-time comparison: file sizes 250KB-16MB,
// P = 1KB, stretch factor 2, for the roster.
func Table2(w io.Writer, o Options) error {
	fprintf(w, "Table 2: Encoding times (P=1KB, n=2k)\n")
	return rosterTable(w, o, rand.New(rand.NewSource(o.Seed)), false)
}

// Table3 regenerates the decoding-time comparison: each code decodes its
// Table 3 reception (RS from k/2 source + k/2 repair packets, the carousel
// expectation at stretch 2; Tornado from a random packet stream), timed
// from decoder creation through Source.
func Table3(w io.Writer, o Options) error {
	fprintf(w, "Table 3: Decoding times (P=1KB, n=2k; RS from k/2 source + k/2 repair)\n")
	return rosterTable(w, o, rand.New(rand.NewSource(o.Seed+3)), true)
}

// rosterTable prints one row per file size of every roster code's encode
// time, or its decode time when decode is set.
func rosterTable(w io.Writer, o Options, rng *rand.Rand, decode bool) error {
	fprintf(w, "%-10s %-14s %-14s %-14s %-14s\n", "SIZE", "Vandermonde", "Cauchy", "Tornado A", "Tornado B")
	for _, kb := range o.sizesKB() {
		k := kb // kb KB / 1KB packets
		src := Corpus(rng, k, packetLen)
		row := fmt.Sprintf("%-10s", sizeName(kb))
		for _, e := range Roster {
			if e.maxKB > 0 && kb > e.maxKB {
				row += fmt.Sprintf(" %-14s", "not available")
				continue
			}
			t, dec, err := timeEntry(e, k, o.Seed, src, rng, decode)
			if err != nil {
				return err
			}
			if decode {
				t = dec
			}
			row += fmt.Sprintf(" %-14s", fmtDur(t))
		}
		fprintf(w, "%s\n", row)
	}
	return nil
}

func sizeName(kb int) string {
	if kb < 1024 {
		return fmt.Sprintf("%d KB", kb)
	}
	return fmt.Sprintf("%d MB", kb/1024)
}
