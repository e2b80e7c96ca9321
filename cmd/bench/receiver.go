package main

// The receiver suite measures the million-receiver receive path from the
// ISSUE-7 rework, top to bottom:
//
//   - engine intake: wire packets through client.Engine.HandlePacketFrom /
//     HandleBatchFrom in steady state (tag verify, header parse, serial
//     accounting against the ring window, duplicate decode) — gated to be
//     allocation-free per packet;
//   - the UDP socket path: a burst-and-drain loopback measurement of the
//     batched recvmmsg read (RecvBatch), gated allocation-free;
//   - the receiver population simulator: PopulationParallel at a million
//     receivers with k = 10000 (the paper's large block), hard-checked
//     bit-identical to the serial oracle on a sampled prefix, plus the §6
//     interleaved-block baseline at 10^5 receivers.
//
// The allocation gates are hard failures: the CI bench-smoke step runs
// this suite, so a regression that makes steady-state intake allocate
// fails the build, not just a trend line.

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/transport"
)

// intakeDistinct is the number of distinct packet indices cycled through
// the engine during the intake measurement — small enough that the session
// (k ≈ 4194) can never finish decoding mid-window, large enough that the
// per-index decoder state is out of cache like a real download's.
const intakeDistinct = 2000

// intakeCycles is how many fresh-serial passes over the distinct indices
// are pre-generated; the first pass warms the engine (registers every
// index with the decoder), the rest are the measured steady state.
const intakeCycles = 50

// drainBurst is the per-round datagram count of the socket benchmark:
// several recvmmsg fills (with GSO and GRO, 16 runs of 64 in four fills),
// and well inside what a client socket queues (≈ 3 640 lone datagrams).
const drainBurst = 1024

// drainRounds is the number of bursts the socket benchmark drains: ≈ 300 k
// datagrams, so the row's pkts/s is not at the mercy of one scheduling
// hiccup.
const drainRounds = 300

// simK is the simulated block size (the paper's large-file operating
// point), and simLoss the per-receiver Bernoulli loss rate.
const (
	simK    = 10_000
	simLoss = 0.05
)

// simReceivers is the population of the headline simulator row.
const simReceivers = 1_000_000

// identityPrefix is the receiver-index prefix on which the parallel
// population run is re-simulated serially and compared bit for bit.
const identityPrefix = 4096

type receiverResult struct {
	Mode    string  `json:"mode"`
	Packets uint64  `json:"packets,omitempty"`
	Seconds float64 `json:"seconds"`
	// Socket/intake rows.
	PacketsPerSec       float64 `json:"packets_per_s,omitempty"`
	MBPerSec            float64 `json:"mb_per_s,omitempty"`
	AllocsPerPacket     float64 `json:"allocs_per_packet"`
	AllocBytesPerPacket float64 `json:"alloc_bytes_per_packet"`
	Drops               uint64  `json:"drops,omitempty"`
	// Simulator rows.
	Receivers       int     `json:"receivers,omitempty"`
	K               int     `json:"k,omitempty"`
	ReceiversPerSec float64 `json:"receivers_per_s,omitempty"`
	MeanEfficiency  float64 `json:"mean_efficiency,omitempty"`
}

type receiverReport struct {
	envelope
	Results []receiverResult `json:"results"`
}

// intakeSession builds the 4-layer Tornado session whose packets feed the
// engine rows. ~2 MiB at 500-byte payloads puts k ≈ 4194, so cycling 2000
// distinct indices can never complete the decode.
func intakeSession() (*core.Session, error) {
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 167)
	}
	cfg := core.DefaultConfig()
	cfg.Codec = proto.CodecTornadoA
	cfg.PacketLen = 500
	cfg.Layers = 4
	cfg.Seed = 7
	cfg.Session = 0x7001
	return core.NewSession(data, cfg)
}

// intakePackets pre-generates the full duplicate-heavy intake stream: the
// same intakeDistinct indices over and over, with fresh, mostly contiguous
// per-layer serials (an occasional skip keeps the loss window live). All
// wire bytes exist before the clock starts — the measurement sees only the
// engine.
func intakePackets(sess *core.Session) [][]byte {
	layers := 4
	pkts := make([][]byte, 0, intakeCycles*intakeDistinct)
	var serial [4]uint32
	var count [4]int
	for m := 0; m < intakeCycles; m++ {
		for i := 0; i < intakeDistinct; i++ {
			l := i % layers
			count[l]++
			serial[l]++
			if count[l]%97 == 0 {
				serial[l] += 3 // a small gap: the ring window stays exercised
			}
			pkts = append(pkts, sess.AppendPacket(make([]byte, 0, sess.WireLen()), i, uint8(l), serial[l], 0))
		}
	}
	return pkts
}

// measureIntake feeds the pre-generated stream to a fresh engine — first
// cycle off the clock as warmup — and accounts time and allocations over
// the rest. batch selects HandleBatchFrom in slices of 32 versus
// the per-packet call; traced attaches an enabled flight recorder, so the
// gated row proves intake stays allocation-free while every packet also
// writes EvIntake/EvSymbol events into the ring.
func measureIntake(sess *core.Session, pkts [][]byte, batch, traced bool) (receiverResult, error) {
	eng, err := client.New(sess.Info(), 0, nil)
	if err != nil {
		return receiverResult{}, err
	}
	if traced {
		rec := evtrace.New(evtrace.Config{Shards: 1, ShardSize: 1 << 16})
		rec.Enable()
		eng.SetTrace(rec.Shard(0), 0)
	}
	warm := pkts[:intakeDistinct]
	rest := pkts[intakeDistinct:]
	for _, p := range warm {
		if _, err := eng.HandlePacketFrom(0, p); err != nil {
			return receiverResult{}, err
		}
	}
	var bytes uint64
	for _, p := range rest {
		bytes += uint64(len(p))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if batch {
		// 32 datagrams: a RecvBatch fill before GRO. Fills now run from
		// ≈ 10 (a paced download) to ≈ 127 (a saturated one).
		const chunk = 32
		for lo := 0; lo < len(rest); lo += chunk {
			hi := lo + chunk
			if hi > len(rest) {
				hi = len(rest)
			}
			if _, err := eng.HandleBatchFrom(0, rest[lo:hi]); err != nil {
				return receiverResult{}, err
			}
		}
	} else {
		for _, p := range rest {
			if _, err := eng.HandlePacketFrom(0, p); err != nil {
				return receiverResult{}, err
			}
		}
	}
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if eng.Done() {
		return receiverResult{}, fmt.Errorf("intake decode completed mid-window: measurement invalid")
	}
	mode := "engine-intake"
	switch {
	case batch:
		mode = "engine-intake-batch"
	case traced:
		mode = "engine-intake-trace"
	}
	n := uint64(len(rest))
	return receiverResult{
		Mode:                mode,
		Packets:             n,
		Seconds:             secs,
		PacketsPerSec:       float64(n) / secs,
		MBPerSec:            float64(bytes) / secs / 1e6,
		AllocsPerPacket:     float64(m1.Mallocs-m0.Mallocs) / float64(n),
		AllocBytesPerPacket: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}, nil
}

// measureDrain runs the burst-and-drain socket benchmark, drainRounds
// times: the server blasts drainBurst datagrams (off the clock), then the
// client drains them with RecvBatch while time and allocations are
// accounted; the row's pkts/s is all datagrams over all drains. Only the
// drains are bracketed by ReadMemStats, so the server's send path never
// lands in the receiver's account. Loss inside a round ends it (counted in
// Drops), so a dropped datagram costs one timeout, not a hang.
func measureDrain() (receiverResult, error) {
	const session = 0x7002
	srv, err := transport.NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		return receiverResult{}, err
	}
	defer srv.Close()
	cli, err := transport.NewUDPClientSession([]*net.UDPAddr{srv.Addr()}, session, 0)
	if err != nil {
		return receiverResult{}, err
	}
	defer cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionSubscribers(session, 0) == 0 {
		if time.Now().After(deadline) {
			return receiverResult{}, fmt.Errorf("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	burst := make([][]byte, drainBurst)
	payload := make([]byte, 500)
	for i := range burst {
		h := proto.Header{Index: uint32(i), Serial: uint32(i + 1), Session: session}
		burst[i] = append(h.Marshal(nil), payload...)
	}
	var rb transport.RecvBatch
	defer rb.Free()
	var (
		total, bytes, drops uint64
		mallocs, allocBytes uint64
		secs                float64
		m0, m1              runtime.MemStats
	)
	runtime.GC()
	// Round 0 is off the books: it sizes rb's buffers.
	for round := range drainRounds + 1 {
		if err := srv.SendBatch(0, burst); err != nil {
			return receiverResult{}, err
		}
		got, gotBytes := 0, uint64(0)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for got < drainBurst {
			n, err := cli.RecvBatch(&rb, 250*time.Millisecond)
			if err == transport.ErrTimeout {
				break
			}
			if err != nil {
				return receiverResult{}, err
			}
			for _, p := range rb.Packets() {
				gotBytes += uint64(len(p))
			}
			got += n
		}
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if round == 0 {
			continue
		}
		secs += dt
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		total += uint64(got)
		bytes += gotBytes
		drops += uint64(drainBurst - got)
	}
	res := receiverResult{
		Mode:    "udp-recv-batch",
		Packets: total,
		Seconds: secs,
		Drops:   drops,
	}
	if total > 0 && secs > 0 {
		res.PacketsPerSec = float64(total) / secs
		res.MBPerSec = float64(bytes) / secs / 1e6
		res.AllocsPerPacket = float64(mallocs) / float64(total)
		res.AllocBytesPerPacket = float64(allocBytes) / float64(total)
	}
	return res, nil
}

// simThreshold runs the headline row: simReceivers i.i.d. ThresholdDecoder
// receivers at k = simK under Bernoulli loss, through the sharded parallel
// simulator, then re-simulates an identityPrefix-receiver prefix serially
// and requires bitwise identity.
func simThreshold() (receiverResult, error) {
	mkDec := func(rng *netsim.RNG) netsim.Decodability {
		return &netsim.ThresholdDecoder{NTotal: 2 * simK, Need: simK}
	}
	mkLoss := func(rng *netsim.RNG) netsim.LossProcess {
		return &netsim.Bernoulli{P: simLoss, Rng: rng}
	}
	const seed = 98
	t0 := time.Now()
	effs := netsim.PopulationParallel(simReceivers, simK, mkDec, mkLoss, nil, seed)
	secs := time.Since(t0).Seconds()
	oracle := netsim.Population(identityPrefix, simK, mkDec, mkLoss, nil, seed)
	for i := range oracle {
		if effs[i] != oracle[i] {
			return receiverResult{}, fmt.Errorf(
				"parallel population diverges from serial oracle at receiver %d: %v != %v",
				i, effs[i], oracle[i])
		}
	}
	mean := 0.0
	for _, e := range effs {
		mean += e
	}
	mean /= float64(len(effs))
	return receiverResult{
		Mode:            "netsim-threshold",
		Receivers:       simReceivers,
		K:               simK,
		Seconds:         secs,
		ReceiversPerSec: simReceivers / secs,
		MeanEfficiency:  mean,
	}, nil
}

// simBlock runs the §6 interleaved-block baseline: 100 blocks of 100
// source packets each (k = simK in total), 10^5 receivers.
func simBlock() (receiverResult, error) {
	const receivers = 100_000
	mkDec := func(rng *netsim.RNG) netsim.Decodability {
		return netsim.NewBlockDecoder(2*simK, 100, 100)
	}
	mkLoss := func(rng *netsim.RNG) netsim.LossProcess {
		return &netsim.Bernoulli{P: simLoss, Rng: rng}
	}
	t0 := time.Now()
	effs := netsim.PopulationParallel(receivers, simK, mkDec, mkLoss, nil, 99)
	secs := time.Since(t0).Seconds()
	mean := 0.0
	for _, e := range effs {
		mean += e
	}
	mean /= float64(len(effs))
	return receiverResult{
		Mode:            "netsim-block",
		Receivers:       receivers,
		K:               simK,
		Seconds:         secs,
		ReceiversPerSec: float64(receivers) / secs,
		MeanEfficiency:  mean,
	}, nil
}

// runReceiverSuite executes the full suite and writes the JSON report. It
// exits nonzero when steady-state intake or the batched socket read
// allocates, or when the parallel simulator diverges from the serial
// oracle.
func runReceiverSuite(out string) {
	rep := receiverReport{envelope: newEnvelope()}
	fail := func(err error) { fatalf("receiver: %v", err) }

	sess, err := intakeSession()
	if err != nil {
		fail(err)
	}
	pkts := intakePackets(sess)
	for _, m := range []struct{ batch, traced bool }{
		{false, false}, {true, false}, {false, true},
	} {
		res, err := measureIntake(sess, pkts, m.batch, m.traced)
		if err != nil {
			fail(err)
		}
		rep.Results = append(rep.Results, res)
	}
	pkts = nil
	runtime.GC()

	resD, err := measureDrain()
	if err != nil {
		fail(err)
	}
	rep.Results = append(rep.Results, resD)

	resT, err := simThreshold()
	if err != nil {
		fail(err)
	}
	rep.Results = append(rep.Results, resT)
	resB, err := simBlock()
	if err != nil {
		fail(err)
	}
	rep.Results = append(rep.Results, resB)

	writeReport(out, rep, func() {
		for _, r := range rep.Results {
			switch {
			case r.Receivers > 0:
				fmt.Printf("%-20s receivers=%-9d k=%-6d %8.2f s %12.0f recv/s mean eta %.4f\n",
					r.Mode, r.Receivers, r.K, r.Seconds, r.ReceiversPerSec, r.MeanEfficiency)
			default:
				fmt.Printf("%-20s %9d pkts %12.0f pkts/s %9.2f MB/s %8.4f allocs/pkt %8.1f B/pkt (drops %d)\n",
					r.Mode, r.Packets, r.PacketsPerSec, r.MBPerSec, r.AllocsPerPacket, r.AllocBytesPerPacket, r.Drops)
			}
		}
	})

	// Hard gates: nothing passes vacuously, and the steady-state receive
	// path must not allocate.
	for _, r := range rep.Results {
		switch r.Mode {
		case "engine-intake", "engine-intake-batch", "engine-intake-trace", "udp-recv-batch":
			if r.Packets == 0 {
				fatalf("FAIL: %s processed nothing", r.Mode)
			}
			if r.AllocsPerPacket > allocGate {
				fatalf("FAIL: %s allocates %.4f/packet (gate %.2f)", r.Mode, r.AllocsPerPacket, allocGate)
			}
		}
	}
}
