// Command bench runs the codec benchmarks that back the paper's Tables 2-3
// (encode and decode throughput for Tornado A/B and the two Reed-Solomon
// baselines, plus the rateless LT and raptor codecs at k = 1000 and 10000)
// and writes the results as machine-readable JSON, so the performance
// trajectory can be tracked PR over PR. Every decode row times
// repro.Decode, the decode the paper's tables time, and carries its
// measured reception overhead (packets needed / k, averaged over fresh
// reception orders). The Tornado and rateless decode rows sit under hard
// regression gates, and Tornado A's speed against Cauchy RS under a ratio
// gate (checkDecodeGates): overhead, allocation or ratio drift fails the
// run.
//
// Usage:
//
//	go run ./cmd/bench [-suite codecs] [-o BENCH_codecs.json]
//	go run ./cmd/bench -suite sender [-o BENCH_sender.json]
//	go run ./cmd/bench -suite receiver [-o BENCH_receiver.json]
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
	"testing"
	"time"

	fountain "repro"
	"repro/internal/code"
	"repro/internal/repro"
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

// The codecs suite's shape: the fixed-rate roster at fixedK source
// packets, and every code at packetLen bytes.
const (
	fixedK    = 512
	packetLen = 1024
)

// envelope is the header of every suite's report.
type envelope struct {
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Time       time.Time `json:"time"`
}

func newEnvelope() envelope {
	return envelope{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time:       time.Now().UTC(),
	}
}

type report struct {
	envelope
	Results []result `json:"results"`
}

func main() {
	suite := flag.String("suite", "codecs", "benchmark suite: codecs|sender|receiver")
	out := flag.String("o", "", "output JSON path ('-' for stdout; default BENCH_<suite>.json)")
	flag.Parse()

	run := map[string]func(string){
		"codecs":   runCodecSuite,
		"sender":   runSenderSuite,
		"receiver": runReceiverSuite,
	}[*suite]
	if run == nil {
		fatalf("unknown suite %q (codecs|sender|receiver)", *suite)
	}
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	run(*out)
}

// fatalf reports a failure on stderr and exits nonzero.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// writeReport writes rep as indented JSON to out, or to stdout when out is
// "-". Written to a file, it then prints the suite's table and the path.
func writeReport(out string, rep any, table func()) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatalf("write: %v", err)
	}
	table()
	fmt.Printf("wrote %s\n", out)
}

// runCodecSuite measures every codec, enforces the gates, and writes the
// JSON report.
func runCodecSuite(out string) {
	rep := report{envelope: newEnvelope()}
	for _, e := range repro.Roster {
		rows, err := benchFixed(e)
		if err != nil {
			fatalf("%s: %v", e.Name, err)
		}
		rep.Results = append(rep.Results, rows...)
	}
	// The rateless codecs. Throughput is per k packets' worth of payload
	// so the MB/s figures are comparable with the fixed-rate rows, and
	// reception overhead is measured over fresh regions of the unbounded
	// index space.
	for _, k := range []int{1000, 10000} {
		rows, err := benchLT(k)
		if err != nil {
			fatalf("lt k=%d: %v", k, err)
		}
		rep.Results = append(rep.Results, rows...)
	}
	for _, k := range []int{1000, 10000} {
		rows, err := benchRaptor(k)
		if err != nil {
			fatalf("raptor k=%d: %v", k, err)
		}
		rep.Results = append(rep.Results, rows...)
	}

	if err := checkDecodeGates(rep.Results); err != nil {
		fatalf("%v", err)
	}
	writeReport(out, rep, func() {
		for _, r := range rep.Results {
			ov := ""
			if r.Overhead > 0 {
				ov = fmt.Sprintf(" %7.4f pkts/k", r.Overhead)
			}
			fmt.Printf("%-16s %-7s k=%-6d %12.0f ns/op %9.2f MB/s %10d B/op %7d allocs/op%s\n",
				r.Name, r.Op, r.K, r.NsPerOp, r.MBPerSec, r.BytesPerOp, r.AllocsPerOp, ov)
		}
	})
}

// benchFixed produces a roster code's encode and decode rows at fixedK:
// the decode row times repro.Decode over a fresh Table 3 reception per
// iteration.
func benchFixed(e repro.Entry) ([]result, error) {
	codec, err := e.New(fixedK, packetLen, 1)
	if err != nil {
		return nil, err
	}
	src := repro.Corpus(rand.New(rand.NewSource(1)), fixedK, packetLen)
	enc, err := code.EncodeAll(codec, src)
	if err != nil {
		return nil, err
	}
	encRes := runBench(codec, "encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := code.EncodeAll(codec, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	rng := rand.New(rand.NewSource(2))
	decRes := runBench(codec, "decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Packet-order generation is not the decoder's work: keep
			// it off the clock and out of the allocation accounting.
			b.StopTimer()
			order := e.Order(rng, fixedK)
			b.StartTimer()
			if _, err := repro.Decode(codec, enc, 0, order); err != nil {
				b.Fatal(err)
			}
		}
	})
	ovRng := rand.New(rand.NewSource(77))
	decRes.Overhead, err = meanOverhead(fixedK, func(int) (int, error) {
		return repro.Decode(codec, enc, 0, e.Order(ovRng, fixedK))
	})
	return []result{encRes, decRes}, err
}

// meanOverhead averages the packets per source packet that decode(trial)
// takes over overheadTrials trials.
func meanOverhead(k int, decode func(trial int) (int, error)) (float64, error) {
	total := 0
	for trial := 0; trial < overheadTrials; trial++ {
		used, err := decode(trial)
		if err != nil {
			return 0, err
		}
		total += used
	}
	return float64(total) / overheadTrials / float64(k), nil
}

// inOrder returns the reception order 0, 1, …, n-1: a stream region in
// index order.
func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// benchRateless produces the two rows every rateless codec has at one k:
// encode throughput over k-packet windows of the unbounded index stream
// starting at encodeBase, and — under the op name decodeOp — decode
// throughput over a fresh stream region per iteration, carrying the
// averaged reception overhead.
func benchRateless(codec fountain.Codec, encodeBase int, decodeOp string) ([]result, error) {
	k := codec.K()
	ranger := codec.(code.RangeEncoder)
	src := repro.Corpus(rand.New(rand.NewSource(1)), k, packetLen)
	// Enough stream for any single decode: measured overhead stays under
	// 1.1; a quarter plus slack gives deterministic headroom.
	budget := k + k/4 + 256
	stream := inOrder(budget)

	base := encodeBase
	encRes := runBench(codec, "encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ranger.EncodeRange(src, base, base+k); err != nil {
				b.Fatal(err)
			}
			base += k
		}
	})

	decBase := 1 << 28
	decRes := runBench(codec, decodeOp, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Stream generation is the encoder's work: off the clock.
			b.StopTimer()
			pool, err := ranger.EncodeRange(src, decBase, decBase+budget)
			b.StartTimer()
			if err == nil {
				_, err = repro.Decode(codec, pool, decBase, stream)
			}
			if err != nil {
				b.Fatal(err)
			}
			decBase += budget
		}
	})

	// Reception overhead over fresh stream regions.
	var err error
	decRes.Overhead, err = meanOverhead(k, func(trial int) (int, error) {
		ovBase := 1<<30 + trial*budget
		pool, err := ranger.EncodeRange(src, ovBase, ovBase+budget)
		if err != nil {
			return 0, err
		}
		return repro.Decode(codec, pool, ovBase, stream)
	})
	return []result{encRes, decRes}, err
}

// benchLT produces the encode/decode rows of the LT codec at one k.
func benchLT(k int) ([]result, error) {
	codec, err := fountain.NewLT(k, packetLen, 1)
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
func benchRaptor(k int) ([]result, error) {
	codec, err := fountain.NewRaptor(k, packetLen, 1)
	if err != nil {
		return nil, err
	}
	// Repair region: indices >= k.
	rows, err := benchRateless(codec, 1<<27, "decode-repair")
	if err != nil {
		return nil, err
	}
	src := repro.Corpus(rand.New(rand.NewSource(1)), k, packetLen)
	prefix := inOrder(k)
	sysRes := runBench(codec, "decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The systematic prefix aliases src — no encode work to keep
			// off the clock; the decoder copies it into its source buffer.
			if _, err := repro.Decode(codec, src, 0, prefix); err != nil {
				b.Fatalf("lossless systematic intake did not complete at k: %v", err)
			}
		}
	})
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
	// Tornado, at fixedK: no cascade at k = 512, so the rest is the dense
	// rows' neighbour sets and the solver's state. A decoder keeping its
	// own propagation state and packet arena (1.75 files, 96 allocs/op)
	// fails both ceilings.
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

// ratioGates are the paper's central claim (Tables 2-3) as a gate that
// holds on any box: at fixedK, Tornado A's MB/s over Cauchy RS's MB/s in
// the same run, for each op, is at least min. Each min is half the ratio
// of the run that set it: 102.6x for encode and 21.9x for decode on a
// 2-core x86-64 box at GOMAXPROCS 2.
var ratioGates = []struct {
	op  string
	min float64
}{
	{"encode", 51.3},
	{"decode", 10.9},
}

// checkDecodeGates enforces decodeGates and ratioGates over the collected
// rows. A gate whose row is missing is itself a failure — a renamed or
// dropped benchmark must not pass vacuously.
func checkDecodeGates(results []result) error {
	row := func(name, op string, k int) (result, error) {
		for _, r := range results {
			if r.Name == name && r.Op == op && r.K == k {
				return r, nil
			}
		}
		return result{}, fmt.Errorf("gate %s/%s k=%d matched no benchmark row (vacuous pass)", name, op, k)
	}
	for _, g := range decodeGates {
		r, err := row(g.name, g.op, g.k)
		if err != nil {
			return err
		}
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
	for _, g := range ratioGates {
		t, err := row("tornado-a", g.op, fixedK)
		if err != nil {
			return err
		}
		c, err := row("rs-cauchy", g.op, fixedK)
		if err != nil {
			return err
		}
		if ratio := t.MBPerSec / c.MBPerSec; !(ratio >= g.min) {
			return fmt.Errorf("gate tornado-a/rs-cauchy %s k=%d: %.2f / %.2f MB/s is %.1fx, below %.1fx",
				g.op, fixedK, t.MBPerSec, c.MBPerSec, ratio, g.min)
		}
	}
	return nil
}

// runBench wraps testing.Benchmark (which scales iterations to ~1s of
// measured time) into a row of codec's op, with byte-rate accounting per
// k packets.
func runBench(codec fountain.Codec, op string, fn func(b *testing.B)) result {
	bytesPerOp := codec.K() * codec.PacketLen()
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(bytesPerOp))
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		// testing.Benchmark returns the zero result when the benchmark
		// body b.Fatals; writing zero metrics would silently corrupt the
		// trajectory file.
		fatalf("%s %s: benchmark failed (zero iterations)", codec.Name(), op)
	}
	mbps := 0.0
	if r.T > 0 {
		mbps = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
	}
	return result{
		Name:        codec.Name(),
		Op:          op,
		K:           codec.K(),
		N:           codec.N(),
		PacketLen:   codec.PacketLen(),
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		MBPerSec:    mbps,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
