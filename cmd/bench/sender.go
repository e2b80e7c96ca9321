package main

// The sender suite measures the service's aggregate emission throughput at
// 1, 16 and 256 concurrent sessions through the shared pacing scheduler
// (per-shard buffers, per-layer batches, GOMAXPROCS shard workers), with the
// flight recorder absent, attached-disabled and recording. Every mode runs
// at a saturating rate against the same null counting sink, so the numbers
// isolate the send path itself.
//
// The suite enforces the zero-alloc property: steady-state scheduler
// emission above allocGate allocations per packet is a hard failure (the
// CI bench-smoke step runs this suite).

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/proto"
	"repro/internal/service"
)

// senderSessionCounts are the concurrency points of the suite.
var senderSessionCounts = []int{1, 16, 256}

// allocGate is the most allocations per emitted packet the scheduler mode
// tolerates: the send path itself is zero-alloc, and the small margin only
// absorbs unrelated runtime activity (timer wheels, memstats reads) that
// lands in the same measurement window.
const allocGate = 0.01

// traceOffFloor is the fraction of the plain scheduler's throughput the
// scheduler must retain with a flight recorder attached but disabled — the
// "one predictable branch per site" claim as a hard gate rather than a
// comment. The floor is deliberately loose (the real cost is ~0): it exists
// to catch a recorder that grew a lock or a per-packet allocation, not to
// resolve single percents. What it compares is each row's best of
// senderRounds interleaved windows — on a shared box a single window lands
// in a slow second often enough (one run in four: 6.5 M against 21 M
// pkts/s, in either direction) that comparing one against one failed runs
// no recorder change had touched.
const traceOffFloor = 0.60

// senderRounds is how many times the three recorder modes are measured, in
// turn, at each session count; a row reports its best window's throughput
// and its worst window's allocations.
const senderRounds = 3

// saturationRate is a per-session base rate far beyond what any mode can
// emit, so pacing never idles and the measurement is pure send-path
// throughput.
const saturationRate = 50_000_000

var fileKiB = 16

// senderPayload is the payload of every session: the paper prototype's
// 500 bytes, the suite's reference point.
const senderPayload = 500

type senderResult struct {
	Mode                string  `json:"mode"` // traceMode.label()
	Sessions            int     `json:"sessions"`
	Seconds             float64 `json:"seconds"`
	Packets             uint64  `json:"packets"`
	PacketsPerSec       float64 `json:"packets_per_s"`
	MBPerSec            float64 `json:"mb_per_s"`
	AllocsPerPacket     float64 `json:"allocs_per_packet"`
	AllocBytesPerPacket float64 `json:"alloc_bytes_per_packet"`
	// Scrapes counts metrics-registry text expositions rendered
	// concurrently with the measurement window: the alloc gate is enforced
	// with observability read traffic live, so "zero-alloc with
	// instrumentation" is what is actually proven.
	Scrapes int `json:"scrapes,omitempty"`
}

type senderReport struct {
	envelope
	PacketLen int            `json:"packet_len"`
	Results   []senderResult `json:"results"`
}

// countSink is a transport.Sender that counts packets and bytes without
// retaining or allocating.
type countSink struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
}

func (c *countSink) SendBatch(layer int, pkts [][]byte) error {
	var nb uint64
	for _, p := range pkts {
		nb += uint64(len(p))
	}
	c.packets.Add(uint64(len(pkts)))
	c.bytes.Add(nb)
	return nil
}

// senderSessions builds n eagerly encoded Tornado sessions (16 KiB file,
// 4 layers — eager encoding keeps the lazy cache, a different subsystem,
// out of the send-path measurement).
func senderSessions(n, pl int) ([]*core.Session, error) {
	data := make([]byte, fileKiB<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	out := make([]*core.Session, n)
	for i := range out {
		cfg := core.DefaultConfig()
		cfg.Codec = proto.CodecTornadoA
		cfg.PacketLen = pl
		cfg.Layers = 4
		cfg.Seed = int64(i + 1)
		cfg.Session = uint16(i + 1)
		sess, err := core.NewSession(data, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = sess
	}
	return out, nil
}

// measureWindow samples the sink and allocator over the measurement
// window, after the warmup, and folds the deltas into a result.
func measureWindow(sink *countSink, warmup, window time.Duration) senderResult {
	time.Sleep(warmup)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0, b0 := sink.packets.Load(), sink.bytes.Load()
	t0 := time.Now()
	time.Sleep(window)
	runtime.ReadMemStats(&m1)
	p1, b1 := sink.packets.Load(), sink.bytes.Load()
	secs := time.Since(t0).Seconds()
	pkts := p1 - p0
	res := senderResult{
		Seconds: secs,
		Packets: pkts,
	}
	if pkts > 0 && secs > 0 {
		res.PacketsPerSec = float64(pkts) / secs
		res.MBPerSec = float64(b1-b0) / secs / 1e6
		res.AllocsPerPacket = float64(m1.Mallocs-m0.Mallocs) / float64(pkts)
		res.AllocBytesPerPacket = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pkts)
	}
	return res
}

// traceMode selects how the flight recorder rides along on a scheduler
// measurement: absent entirely, attached but disabled (the deployment
// default — each instrumentation site costs one predictable branch), or
// attached and recording (every site also writes a 32-byte event into its
// shard's ring).
type traceMode int

const (
	traceNone traceMode = iota
	traceOff
	traceOn
)

func (m traceMode) label() string {
	switch m {
	case traceOff:
		return "scheduler+trace-off"
	case traceOn:
		return "scheduler+trace"
	}
	return "scheduler"
}

// benchScheduler runs the sessions through the shared pacing scheduler and
// the batched send path, with the flight recorder in the requested
// mode.
func benchScheduler(sessions []*core.Session, warmup, window time.Duration, tm traceMode) (senderResult, error) {
	sink := &countSink{}
	cfg := service.Config{BaseRate: saturationRate}
	if tm != traceNone {
		rec := evtrace.New(evtrace.Config{Shards: runtime.GOMAXPROCS(0)})
		if tm == traceOn {
			rec.Enable()
		}
		cfg.Trace = rec
	}
	svc := service.New(sink, cfg)
	for _, sess := range sessions {
		if err := svc.AddPhased(sess, saturationRate, 0); err != nil {
			svc.Close()
			return senderResult{}, err
		}
	}
	// A live scraper renders the full text exposition throughout the
	// measurement: the few dozen scrape-side allocations it costs are
	// amortized over millions of packets and must stay far under the
	// per-packet gate — instrumentation that survives only an idle
	// registry would be the kind of metric that lies.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan int)
	go func() {
		n := 0
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				scrapeDone <- n
				return
			case <-t.C:
				svc.Metrics().WriteTo(io.Discard)
				n++
			}
		}
	}()
	res := measureWindow(sink, warmup, window)
	close(stopScrape)
	scrapes := <-scrapeDone
	svc.Close()
	res.Mode = tm.label()
	res.Sessions = len(sessions)
	res.Scrapes = scrapes
	return res, nil
}

// bestWindow folds one more window into a row: the faster window's
// throughput stands (noise only ever slows a window down), but the worse
// allocation figures of the two do, so the alloc gate sees every window.
func bestWindow(row, w senderResult) senderResult {
	if row.PacketsPerSec > w.PacketsPerSec {
		row, w = w, row
	}
	w.AllocsPerPacket = max(w.AllocsPerPacket, row.AllocsPerPacket)
	w.AllocBytesPerPacket = max(w.AllocBytesPerPacket, row.AllocBytesPerPacket)
	return w
}

// runSenderSuite executes the full suite and writes the JSON report. It
// exits nonzero when the scheduler's steady-state emission allocates.
func runSenderSuite(out string) {
	const (
		warmup = 250 * time.Millisecond
		window = 400 * time.Millisecond
	)
	rep := senderReport{envelope: newEnvelope(), PacketLen: core.PadPacketLen(senderPayload)}
	for _, n := range senderSessionCounts {
		sessions, err := senderSessions(n, senderPayload)
		if err != nil {
			fatalf("sender sessions: %v", err)
		}
		modes := []traceMode{traceNone, traceOff, traceOn}
		rows := make([]senderResult, len(modes))
		for round := 0; round < senderRounds; round++ {
			for i, tm := range modes {
				runtime.GC()
				schedRes, err := benchScheduler(sessions, warmup, window, tm)
				if err != nil {
					fatalf("sender scheduler: %v", err)
				}
				rows[i] = bestWindow(rows[i], schedRes)
			}
		}
		rep.Results = append(rep.Results, rows...)
	}

	writeReport(out, rep, func() {
		for _, r := range rep.Results {
			fmt.Printf("%-22s sessions=%-4d %12.0f pkts/s %9.2f MB/s %8.4f allocs/pkt %8.1f B/pkt\n",
				r.Mode, r.Sessions, r.PacketsPerSec, r.MBPerSec, r.AllocsPerPacket, r.AllocBytesPerPacket)
		}
	})

	// The hard gates: every mode must actually emit (a stalled scheduler
	// must not pass vacuously); steady-state emission must not allocate
	// with the recorder absent, attached-disabled, or recording; and a
	// disabled recorder must not cost more than the traceOffFloor against
	// the plain scheduler at the same session count.
	plain := map[int]float64{}
	for _, r := range rep.Results {
		if r.Mode == "scheduler" {
			plain[r.Sessions] = r.PacketsPerSec
		}
	}
	for _, r := range rep.Results {
		if r.Packets == 0 {
			fatalf("FAIL: %s at %d sessions emitted nothing", r.Mode, r.Sessions)
		}
		if r.AllocsPerPacket > allocGate {
			fatalf("FAIL: %s at %d sessions allocates %.4f/packet (gate %.2f)",
				r.Mode, r.Sessions, r.AllocsPerPacket, allocGate)
		}
		if r.Mode == "scheduler+trace-off" {
			if base := plain[r.Sessions]; base > 0 && r.PacketsPerSec < traceOffFloor*base {
				fatalf("FAIL: disabled recorder at %d sessions costs too much: %.0f pkts/s vs %.0f plain (floor %.0f%%)",
					r.Sessions, r.PacketsPerSec, base, traceOffFloor*100)
			}
		}
	}
}
