// Command bench runs the codec benchmarks that back the paper's Tables 2-3
// (encode and decode throughput for Tornado A/B and the two Reed-Solomon
// baselines, plus the rateless LT and raptor codecs at k = 1000 and 10000)
// and writes the results as machine-readable JSON, so the performance
// trajectory can be tracked PR over PR. Decode rows also carry the measured
// reception overhead (packets needed / k, averaged over fresh reception
// orders), and the Tornado and rateless decode rows sit under hard
// regression gates (checkDecodeGates): overhead or allocation drift fails
// the run.
//
// Usage:
//
//	go run ./cmd/bench [-suite codecs] [-o BENCH_codecs.json] [-k 512] [-pl 1024]
//	go run ./cmd/bench -suite sender [-o BENCH_sender.json]
//	go run ./cmd/bench -suite receiver [-o BENCH_receiver.json] [-receivers 1000000]
//
// The sender suite benchmarks the service's aggregate emission throughput
// at 1/16/256 concurrent sessions through the shared pacing scheduler and
// fails when steady-state emission allocates (see sender.go). The receiver
// suite benchmarks the intake half — engine packet ingestion, batched
// socket reads, and the population simulator at 10^6 receivers — with the
// same zero-allocation hard gates (see receiver.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	fountain "repro"
	"repro/internal/benchproto"
	"repro/internal/code"
)

type result struct {
	Name        string  `json:"name"`
	Op          string  `json:"op"` // "encode" or "decode"
	K           int     `json:"k"`
	N           int     `json:"n"`
	PacketLen   int     `json:"packet_len"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Overhead is the measured reception overhead (packets needed / k) of
	// decode rows, averaged over overheadTrials fresh reception orders.
	Overhead float64 `json:"overhead,omitempty"`
}

// overheadTrials is the number of independent reception orders averaged
// into each decode row's Overhead figure.
const overheadTrials = 5

type report struct {
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Time       time.Time `json:"time"`
	Results    []result  `json:"results"`
}

func main() {
	suite := flag.String("suite", "codecs", "benchmark suite: codecs|sender|receiver")
	out := flag.String("o", "", "output JSON path ('-' for stdout; default BENCH_<suite>.json)")
	k := flag.Int("k", 512, "source packets per block (codecs suite only)")
	pl := flag.Int("pl", 1024, "packet length in bytes (sender suite default: 500)")
	receivers := flag.Int("receivers", 1_000_000, "simulated population size (receiver suite only)")
	flag.Parse()

	switch *suite {
	case "receiver":
		if *out == "" {
			*out = "BENCH_receiver.json"
		}
		runReceiverSuite(*out, *receivers)
		return
	case "sender":
		if *out == "" {
			*out = "BENCH_sender.json"
		}
		spl := *pl
		if !flagWasSet("pl") {
			spl = 500 // the paper prototype's payload, the suite's reference point
		}
		runSenderSuite(*out, spl)
		return
	case "codecs":
		if *out == "" {
			*out = "BENCH_codecs.json"
		}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown suite %q (codecs|sender|receiver)\n", *suite)
		os.Exit(1)
	}

	kk, ppl := *k, *pl
	codecs := []struct {
		name string
		mk   func() (fountain.Codec, error)
	}{
		{"rs-vandermonde", func() (fountain.Codec, error) { return fountain.NewVandermonde(kk, 2*kk, ppl) }},
		{"rs-cauchy", func() (fountain.Codec, error) { return fountain.NewCauchy(kk, 2*kk, ppl) }},
		{"tornado-a", func() (fountain.Codec, error) { return fountain.NewTornado(fountain.TornadoA(), kk, 2*kk, ppl, 1) }},
		{"tornado-b", func() (fountain.Codec, error) { return fountain.NewTornado(fountain.TornadoB(), kk, 2*kk, ppl, 1) }},
	}

	rep := report{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time:       time.Now().UTC(),
	}
	for _, c := range codecs {
		codec, err := c.mk()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		src := benchproto.Source(kk, ppl)
		enc, err := codec.Encode(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s encode: %v\n", c.name, err)
			os.Exit(1)
		}
		tornadoStyle := false
		switch c.name {
		case "tornado-a", "tornado-b":
			tornadoStyle = true
		}

		encRes := runBench(kk*ppl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(src); err != nil {
					b.Fatal(err)
				}
			}
		})
		encRes.Name, encRes.Op = c.name, "encode"
		encRes.K, encRes.N, encRes.PacketLen = kk, codec.N(), ppl
		rep.Results = append(rep.Results, encRes)

		rng := rand.New(rand.NewSource(2))
		decRes := runBench(kk*ppl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Packet-order generation is not the decoder's work: keep
				// it off the clock and out of the allocation accounting.
				b.StopTimer()
				var order []int
				if tornadoStyle {
					order = benchproto.TornadoOrder(rng, codec.N())
				} else {
					order = benchproto.RSOrder(rng, kk)
				}
				b.StartTimer()
				d := codec.NewDecoder()
				for _, j := range order {
					done, err := d.Add(j, enc[j])
					if err != nil {
						b.Fatal(err)
					}
					if done {
						break
					}
				}
				if _, err := d.Source(); err != nil {
					b.Fatal(err)
				}
			}
		})
		decRes.Name, decRes.Op = c.name, "decode"
		decRes.K, decRes.N, decRes.PacketLen = kk, codec.N(), ppl
		decRes.Overhead = fixedOverhead(codec, enc, kk, tornadoStyle)
		rep.Results = append(rep.Results, decRes)
	}

	// The rateless codecs, at the ISSUE-4 reference sizes. Throughput is
	// per k packets' worth of payload so the MB/s figures are comparable
	// with the fixed-rate rows, and reception overhead is measured over
	// fresh regions of the unbounded index space.
	for _, ltK := range []int{1000, 10000} {
		res, err := benchLT(ltK, ppl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: lt k=%d: %v\n", ltK, err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, res...)
	}
	for _, rk := range []int{1000, 10000} {
		res, err := benchRaptor(rk, ppl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: raptor k=%d: %v\n", rk, err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, res...)
	}

	if err := checkDecodeGates(rep.Results, kk); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write: %v\n", err)
		os.Exit(1)
	}
	for _, r := range rep.Results {
		ov := ""
		if r.Overhead > 0 {
			ov = fmt.Sprintf(" %7.4f pkts/k", r.Overhead)
		}
		fmt.Printf("%-16s %-7s k=%-6d %12.0f ns/op %9.2f MB/s %10d B/op %7d allocs/op%s\n",
			r.Name, r.Op, r.K, r.NsPerOp, r.MBPerSec, r.BytesPerOp, r.AllocsPerOp, ov)
	}
	fmt.Printf("wrote %s\n", *out)
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// fixedOverhead measures a fixed-rate codec's reception overhead (packets
// needed / k) over fresh Table-3 reception orders.
func fixedOverhead(codec fountain.Codec, enc [][]byte, k int, tornadoStyle bool) float64 {
	rng := rand.New(rand.NewSource(77))
	total := 0
	for trial := 0; trial < overheadTrials; trial++ {
		var order []int
		if tornadoStyle {
			order = benchproto.TornadoOrder(rng, codec.N())
		} else {
			order = benchproto.RSOrder(rng, k)
		}
		d := codec.NewDecoder()
		for _, j := range order {
			total++
			done, err := d.Add(j, enc[j])
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: overhead add: %v\n", err)
				os.Exit(1)
			}
			if done {
				break
			}
		}
		if !d.Done() {
			// A decoder that exhausts its reception order without
			// completing is a regression; a quiet overhead figure would
			// mask exactly what this field exists to track.
			fmt.Fprintf(os.Stderr, "bench: %s did not decode within its reception order\n", codec.Name())
			os.Exit(1)
		}
	}
	return float64(total) / float64(overheadTrials) / float64(k)
}

// decodeStream feeds pool, the stream region starting at index base, to a
// fresh decoder until it completes and the source is rebuilt, and returns
// the number of packets that took.
func decodeStream(codec fountain.Codec, base int, pool [][]byte) (int, error) {
	d := codec.NewDecoder()
	for j := range pool {
		done, err := d.Add(base+j, pool[j])
		if err != nil {
			return 0, err
		}
		if done {
			_, err = d.Source()
			return j + 1, err
		}
	}
	return 0, fmt.Errorf("%s k=%d: not decodable from %d packets", codec.Name(), codec.K(), len(pool))
}

// benchRateless produces the two rows every rateless codec has at one k:
// encode throughput over k-packet windows of the unbounded index stream
// starting at encodeBase, and — under the op name decodeOp — decode
// throughput over a fresh stream region per iteration, carrying the
// averaged reception overhead.
func benchRateless(codec fountain.Codec, encodeBase int, decodeOp string) ([]result, error) {
	k, pl := codec.K(), codec.PacketLen()
	ranger := codec.(code.RangeEncoder)
	src := benchproto.Source(k, pl)
	// Enough stream for any single decode: measured overhead stays under
	// 1.1; a quarter plus slack gives deterministic headroom.
	budget := k + k/4 + 256

	base := encodeBase
	encRes := runBench(k*pl, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ranger.EncodeRange(src, base, base+k); err != nil {
				b.Fatal(err)
			}
			base += k
		}
	})
	encRes.Name, encRes.Op = codec.Name(), "encode"
	encRes.K, encRes.N, encRes.PacketLen = k, codec.N(), pl

	decBase := 1 << 28
	decRes := runBench(k*pl, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Stream generation is the encoder's work: off the clock.
			b.StopTimer()
			pool, err := ranger.EncodeRange(src, decBase, decBase+budget)
			b.StartTimer()
			if err == nil {
				_, err = decodeStream(codec, decBase, pool)
			}
			if err != nil {
				b.Fatal(err)
			}
			decBase += budget
		}
	})
	decRes.Name, decRes.Op = codec.Name(), decodeOp
	decRes.K, decRes.N, decRes.PacketLen = k, codec.N(), pl

	// Reception overhead over fresh stream regions.
	total := 0
	for trial := 0; trial < overheadTrials; trial++ {
		ovBase := 1<<30 + trial*budget
		pool, err := ranger.EncodeRange(src, ovBase, ovBase+budget)
		if err != nil {
			return nil, err
		}
		used, err := decodeStream(codec, ovBase, pool)
		if err != nil {
			return nil, err
		}
		total += used
	}
	decRes.Overhead = float64(total) / float64(overheadTrials) / float64(k)
	return []result{encRes, decRes}, nil
}

// benchLT produces the encode/decode rows of the LT codec at one k.
func benchLT(k, pl int) ([]result, error) {
	codec, err := fountain.NewLT(k, pl, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	return benchRateless(codec, 0, "decode")
}

// benchRaptor produces the rows of the precoded systematic rateless codec
// at one k. Three rows, because the code has two distinct decode regimes:
//
//   - "decode" is the systematic operating point — a lossless receiver's
//     intake of the k source packets, zero XOR work, the regime the
//     digital-fountain deployment sits in whenever loss is low. Its
//     overhead is exactly 1 by construction.
//   - "decode-repair" is the worst case — a receiver that joins mid-stream
//     and sees only repair packets. This row carries the measured
//     reception-overhead figure the ≤1.03 gate holds.
//
// The encode row measures repair-packet production (the systematic prefix
// aliases the source and costs nothing).
func benchRaptor(k, pl int) ([]result, error) {
	codec, err := fountain.NewRaptor(k, pl, 1, 0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	// Repair region: indices >= k.
	rows, err := benchRateless(codec, 1<<27, "decode-repair")
	if err != nil {
		return nil, err
	}
	src := benchproto.Source(k, pl)
	sysRes := runBench(k*pl, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The systematic prefix aliases src — no encode work to keep
			// off the clock; the decoder copies it into its source buffer.
			if _, err := decodeStream(codec, 0, src); err != nil {
				b.Fatalf("lossless systematic intake did not complete at k: %v", err)
			}
		}
	})
	sysRes.Name, sysRes.Op = codec.Name(), "decode"
	sysRes.K, sysRes.N, sysRes.PacketLen = k, codec.N(), pl
	sysRes.Overhead = 1 // exactly k packets, asserted above
	return []result{rows[0], sysRes, rows[1]}, nil
}

// decodeGate is one hard acceptance bound over a decode row. Overhead
// regressions and decoder-allocation regressions fail the bench run (and
// CI's codec-bench step) outright instead of drifting silently into the
// trajectory file.
type decodeGate struct {
	name, op    string
	k           int
	maxOverhead float64
	maxAllocs   int64
	maxFiles    float64 // bytes/op ceiling, in files (k·PacketLen)
}

// Every byte ceiling is below 2 files: the decoder's source buffer is the
// one file a decode allocates (coded payloads wait in the slots not yet
// filled), so a second file-sized copy coming back — a join, a payload
// store beside the file — fails the run. Each ceiling is its measured value
// plus about 0.15 files.
var decodeGates = []decodeGate{
	// Tornado, at the default -k: no cascade at k = 512, so the rest is the
	// dense rows' neighbour sets and the solver's state. A decoder keeping
	// its own propagation state and packet arena (1.75 files, 96
	// allocs/op) fails both ceilings.
	{"tornado-a", "decode", 512, 1.02, 80, 1.55},
	{"tornado-b", "decode", 512, 1.02, 80, 1.55},
	// LT: the rest is the received rows' neighbour sets and the solver's
	// state over the full robust soliton.
	{"lt", "decode", 1000, 1.15, 300, 1.5},
	{"lt", "decode", 10000, 1.15, 2_000, 1.6},
	// Raptor: systematic intake is the source buffer and exactly-k by
	// construction; repair-only decode must stay within 3% overhead.
	{"raptor", "decode", 1000, 1.0, 50, 1.25},
	{"raptor", "decode", 10000, 1.0, 100, 1.25},
	{"raptor", "decode-repair", 1000, 1.03, 250, 1.45},
	{"raptor", "decode-repair", 10000, 1.03, 1_000, 1.45},
}

// checkDecodeGates enforces decodeGates over the collected rows. A gate
// whose row is missing is itself a failure — a renamed or dropped
// benchmark must not pass vacuously. The fixed-rate rows run at -k, so
// their gates hold only for a run at the k they name.
func checkDecodeGates(results []result, fixedK int) error {
	for _, g := range decodeGates {
		if strings.HasPrefix(g.name, "tornado") && g.k != fixedK {
			continue
		}
		found := false
		for _, r := range results {
			if r.Name != g.name || r.Op != g.op || r.K != g.k {
				continue
			}
			found = true
			if r.Overhead > g.maxOverhead {
				return fmt.Errorf("gate %s/%s k=%d: overhead %.4f exceeds %.2f",
					g.name, g.op, g.k, r.Overhead, g.maxOverhead)
			}
			if r.AllocsPerOp > g.maxAllocs {
				return fmt.Errorf("gate %s/%s k=%d: %d allocs/op exceeds %d",
					g.name, g.op, g.k, r.AllocsPerOp, g.maxAllocs)
			}
			if files := float64(r.BytesPerOp) / float64(r.K*r.PacketLen); files > g.maxFiles {
				return fmt.Errorf("gate %s/%s k=%d: %d B/op is %.2f files, exceeds %.2f",
					g.name, g.op, g.k, r.BytesPerOp, files, g.maxFiles)
			}
		}
		if !found {
			return fmt.Errorf("gate %s/%s k=%d matched no benchmark row (vacuous pass)", g.name, g.op, g.k)
		}
	}
	return nil
}

// runBench wraps testing.Benchmark (which scales iterations to ~1s of
// measured time) with byte-rate accounting.
func runBench(bytesPerOp int, fn func(b *testing.B)) result {
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(bytesPerOp))
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		// testing.Benchmark returns the zero result when the benchmark
		// body b.Fatals; writing zero metrics would silently corrupt the
		// trajectory file.
		fmt.Fprintln(os.Stderr, "bench: benchmark failed (zero iterations)")
		os.Exit(1)
	}
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	mbps := 0.0
	if r.T > 0 {
		mbps = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
	}
	return result{
		Iterations:  r.N,
		NsPerOp:     ns,
		MBPerSec:    mbps,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
