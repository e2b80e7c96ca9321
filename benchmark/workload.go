package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/transport"
)

// sessionSpec is one file on the air.
type sessionSpec struct {
	codec      uint8
	k          int  // source packets
	payload    int  // payload bytes per packet
	repairOnly bool // carousel phase = k: a mirror joined mid-stream, no systematic prefix
	cached     bool // lazy encoding against the service's shared BlockCache, as Service.AddData does
}

// workload is one named set of inputs. A download of it puts every session
// on the air at once and ends when every file has been verified.
type workload struct {
	name     string
	sessions []sessionSpec
	// udp selects the open loop: the service's pacing scheduler at `rate`
	// requested pkts/s per session over a loopback UDPServer, one UDPClient
	// receiving. Otherwise the loop is closed: one goroutine calls EmitRound
	// into a transport.Bus until the engine is done.
	udp  bool
	rate int
	loss float64 // Bernoulli loss injected on the Bus
}

// saturate is a requested rate no shard can reach, so the scheduler is always
// behind: every pop emits its catch-up cap and drops the rest of the debt.
const saturate = 1 << 20

// workloads is the benchmark's table; BENCHMARK.json and README.md say why
// each one exists.
var workloads = []workload{
	{
		// The paper's configuration: encoding is eager, so the tornado
		// decoder and its bitmat endgame do nearly all the work. k is 2500
		// because at 10000 the decode time is bimodal (see README.md).
		name:     "bus-tornado-loss10",
		sessions: []sessionSpec{{codec: proto.CodecTornadoA, k: 2500, payload: 1024}},
		loss:     0.10,
	},
	{
		// The rateless path: per-emission encode and the peeling decoder
		// both do most of the work, no kernel.
		name:     "bus-raptor-repair",
		sessions: []sessionSpec{{codec: proto.CodecRaptor, k: 10000, payload: 1024, repairOnly: true}},
	},
	{
		// Systematic prefix, smallest packets: zero decode XORs, so
		// per-packet cost is everything and decoder work must not move it.
		name:     "bus-raptor-sys-small",
		sessions: []sessionSpec{{codec: proto.CodecRaptor, k: 16384, payload: 64}},
	},
	{
		// bus-raptor-repair's per-packet codec work on the real scheduler
		// and the kernel: pacing accuracy and syscalls bound it.
		name:     "udp-raptor-paced",
		sessions: []sessionSpec{{codec: proto.CodecRaptor, k: 2500, payload: 1024, repairOnly: true}},
		udp:      true,
		rate:     20000,
	},
	{
		// The service as deployed: many sessions, one socket, a receiver
		// slower than the sender, real socket-overflow loss.
		name: "udp-mixed-saturate",
		sessions: []sessionSpec{
			{codec: proto.CodecTornadoB, k: 2500, payload: 1024, cached: true},
			{codec: proto.CodecInterleaved, k: 2500, payload: 1024, cached: true},
			{codec: proto.CodecLT, k: 2500, payload: 1024, cached: true},
			{codec: proto.CodecRaptor, k: 2500, payload: 1024, cached: true},
		},
		udp:  true,
		rate: saturate,
	},
}

const (
	downloadTimeout = 30 * time.Second
	recvPoll        = 50 * time.Millisecond
	joinTimeout     = 5 * time.Second
)

// flow is one session of a download in flight: sender side, receiver side
// and, on traced downloads, the index sequences the replay feeds back in.
type flow struct {
	file  []byte
	sess  *core.Session
	eng   *client.Engine
	phase int
	got   []byte   // the file as the engine delivered it
	batch [][]byte // demux scratch

	emitted, accepted []uint32 // traced downloads only
}

// sample is what one download measured.
type sample struct {
	setup, wall, cpu     time.Duration
	setupSess, setupCli  time.Duration
	alloc                uint64 // runtime.MemStats.TotalAlloc delta, set-up included
	bytes                int    // verified file bytes delivered
	k, emitted, accepted int
	err                  error
	lay                  *layerSample // traced downloads only
}

// rig is one workload wired up — transport, service and, when tracing, the
// span recorder — and serves every download of a phase.
type rig struct {
	w     workload
	files [][]byte
	bus   *transport.Bus
	srv   *transport.UDPServer
	svc   *service.Service
	tr    *tracer // nil on untraced phases
	// tamper, when set, is applied to each delivered file before it is
	// checked. Tests set it to prove that a wrong byte fails the run.
	tamper func([]byte)

	sessions  int    // sessions registered so far; numbers the session ids
	datagrams uint64 // datagrams the UDP receiver saw
}

// newRig wires up w. kOverride > 0 replaces every session's k (tests).
func newRig(w workload, seed uint64, kOverride int, traced bool) (*rig, error) {
	specs := append([]sessionSpec(nil), w.sessions...)
	w.sessions = specs
	r := &rig{w: w}
	for i := range specs {
		if kOverride > 0 {
			specs[i].k = kOverride
		}
		rng := netsim.NewRNG(seed + uint64(i)*0x9E3779B97F4A7C15)
		file := make([]byte, specs[i].k*specs[i].payload)
		for o := 0; o+8 <= len(file); o += 8 {
			binary.LittleEndian.PutUint64(file[o:], rng.Uint64())
		}
		r.files = append(r.files, file)
	}
	var tx transport.Sender
	if w.udp {
		srv, err := transport.NewUDPServer("127.0.0.1:0", 1)
		if err != nil {
			return nil, fmt.Errorf("listen on loopback: %w", err)
		}
		r.srv, tx = srv, srv
	} else {
		r.bus = transport.NewBus(1)
		tx = r.bus
	}
	if traced {
		r.tr = newTracer(tx, !w.udp)
		tx = r.tr
	}
	r.svc = service.New(tx, service.Config{})
	return r, nil
}

func (r *rig) close() {
	r.svc.Close()
	if r.srv != nil {
		r.srv.Close()
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var errTimeout = errors.New("download timed out")

// download runs one complete download: set up sender and receiver from the
// raw file bytes, put the sessions on the air, receive until every engine
// has returned its verified file, tear down, and compare each delivered file
// with its source. seed picks the codec graphs and the loss pattern.
func (r *rig) download(seed uint64) (s sample) {
	// Each download starts from a collected heap, so that the garbage of one
	// is not collected on the next one's clock.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var cli *transport.UDPClient
	if r.w.udp {
		c, err := r.join()
		if err != nil {
			s.err = err
			return s
		}
		cli = c
		defer cli.Close()
	}

	// Set-up: raw file bytes to ready-to-send and ready-to-receive.
	flows := make([]*flow, len(r.w.sessions))
	t0 := time.Now()
	for i, spec := range r.w.sessions {
		r.sessions++
		cfg := core.Config{
			Codec:            spec.codec,
			PacketLen:        spec.payload,
			Stretch:          2,
			Layers:           1,
			Seed:             int64((seed + uint64(i)) >> 1),
			Session:          uint16(r.sessions%0xFFFE) + 1,
			InterleaveBlockK: 50,
		}
		var cache *core.BlockCache
		if spec.cached {
			cache = r.svc.Cache()
		}
		ts := time.Now()
		sess, err := core.NewSessionCached(r.files[i], cfg, cache)
		if err != nil {
			s.err = fmt.Errorf("session set-up: %w", err)
			return s
		}
		tc := time.Now()
		eng, err := client.New(sess.Info(), 0, nil)
		if err != nil {
			s.err = fmt.Errorf("client set-up: %w", err)
			return s
		}
		s.setupSess += tc.Sub(ts)
		s.setupCli += time.Since(tc)
		f := &flow{file: r.files[i], sess: sess, eng: eng}
		if spec.repairOnly {
			f.phase = spec.k
		}
		flows[i] = f
		s.k += sess.Codec().K()
	}
	s.setup = time.Since(t0)

	var sink *busSink
	if !r.w.udp {
		// The subscriber joins before the session goes on the air.
		var loss netsim.LossProcess
		if r.w.loss > 0 {
			loss = &netsim.Bernoulli{P: r.w.loss, Rng: netsim.NewRNG(seed ^ 0x10557055)}
		}
		sink = &busSink{f: flows[0], tr: r.tr}
		defer r.bus.NewClient(0, loss, sink.handle).Close()
	}

	sent0 := r.svc.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	if r.tr != nil {
		r.tr.start(flows, start)
	}
	if r.w.udp {
		s.err = r.receive(cli, flows, start.Add(downloadTimeout))
	} else {
		s.err = r.pump(sink, start.Add(downloadTimeout))
	}
	s.wall = time.Since(start)
	s.cpu = cpuTime() - cpu0
	if s.err != nil {
		// Whatever a failed download left on the air must not keep emitting
		// into the next one. The sessions it did finish are already gone.
		for _, f := range flows {
			_ = r.svc.Remove(f.sess.Config().Session)
		}
	}
	sent1 := r.svc.Stats()
	runtime.ReadMemStats(&m1)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.emitted = int(sent1.PacketsSent - sent0.PacketsSent)
	for _, f := range flows {
		total, _, _ := f.eng.Stats()
		s.accepted += total
	}
	if s.err != nil {
		return s
	}
	for _, f := range flows {
		if r.tamper != nil {
			r.tamper(f.got)
		}
		if err := checkFile(f.got, f.file, f.sess.Info().Digest); err != nil {
			s.err = fmt.Errorf("session %#x: %w", f.sess.Config().Session, err)
			return s
		}
		s.bytes += len(f.got)
	}
	if r.tr != nil {
		lay, err := r.tr.finish(flows, s, sent0, sent1, r.w.rate)
		if err != nil {
			s.err = err
			return s
		}
		s.lay = lay
	}
	return s
}

// checkFile compares a delivered file with its source byte for byte and
// against the session's advertised SHA-256 digest.
func checkFile(got, want []byte, digest [32]byte) error {
	if !bytes.Equal(got, want) {
		return errors.New("delivered file differs from its source")
	}
	if sha256.Sum256(got) != digest {
		return errors.New("delivered file does not match the session digest")
	}
	return nil
}

// busSink is a bus download's subscriber: it feeds the engine and remembers
// where the engine stands.
type busSink struct {
	f    *flow
	tr   *tracer
	done bool
	err  error // first intake error
}

func (b *busSink) handle(_ int, pkt []byte) {
	var t0 time.Duration
	if b.tr != nil {
		t0 = b.tr.beginIntake(b.f, pkt)
	}
	done, err := b.f.eng.HandlePacket(pkt)
	if b.tr != nil {
		b.tr.endIntake(t0)
	}
	if err != nil && b.err == nil {
		b.err = err
	}
	b.done = done
}

// pump is the closed loop of the bus workloads: emit rounds until the
// engine reports done, then collect the file. Everything — scheduler-free
// emission, framing, encode, the Bus, intake, decode — runs on this
// goroutine, which is what makes the per-layer budget additive.
func (r *rig) pump(sink *busSink, deadline time.Time) error {
	car, err := r.svc.AddManual(sink.f.sess, 0, sink.f.phase)
	if err != nil {
		return err
	}
	for n := 1; !sink.done; n++ {
		if n%1024 == 0 && time.Now().After(deadline) {
			return errTimeout
		}
		if err := r.svc.EmitRound(car); err != nil {
			return err
		}
		if r.tr != nil {
			r.tr.lapEmit()
		}
	}
	if sink.err != nil {
		return fmt.Errorf("intake: %w", sink.err)
	}
	return r.collect(sink.f)
}

// collect takes the verified file out of a finished engine and takes the
// session off the air.
func (r *rig) collect(f *flow) error {
	var t0 time.Duration
	if r.tr != nil {
		t0 = r.tr.beginFile()
	}
	got, err := f.eng.File()
	if r.tr != nil {
		r.tr.endFile(t0)
	}
	if err != nil {
		return err
	}
	f.got = got
	return r.svc.Remove(f.sess.Config().Session)
}

// join opens the download's receive socket and waits until the server has
// registered its wildcard subscription, so no packet is sent to nobody.
func (r *rig) join() (*transport.UDPClient, error) {
	cli, err := transport.NewUDPClient(r.srv.Addr(), 0)
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	for deadline := time.Now().Add(joinTimeout); r.srv.Subscribers(0) != 1; {
		if time.Now().After(deadline) {
			cli.Close()
			return nil, errors.New("join: subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return cli, nil
}

// receive is the open loop of the udp workloads: the sessions go onto the
// pacing scheduler, and this goroutine alone drains the socket, demuxes by
// header session id, feeds the engines and collects each file as its engine
// finishes.
func (r *rig) receive(cli *transport.UDPClient, flows []*flow, deadline time.Time) error {
	for _, f := range flows {
		if err := r.svc.AddPhased(f.sess, r.w.rate, f.phase); err != nil {
			return err
		}
	}
	var rb transport.RecvBatch
	defer rb.Free()
	tr := r.tr
	for left := len(flows); left > 0; {
		var t0 time.Duration
		if tr != nil {
			t0 = tr.now()
		}
		n, err := cli.RecvBatch(&rb, recvPoll)
		if tr != nil {
			tr.endRecv(t0, n)
		}
		if errors.Is(err, transport.ErrTimeout) {
			if time.Now().After(deadline) {
				return errTimeout
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("receive: %w", err)
		}
		r.datagrams += uint64(n)
		pkts := rb.Packets()
		if len(flows) == 1 {
			flows[0].batch = pkts
		} else {
			for _, f := range flows {
				f.batch = f.batch[:0]
			}
			for _, p := range pkts {
				if h, _, err := proto.ParseHeader(p); err == nil {
					if f := flowOf(flows, h.Session); f != nil {
						f.batch = append(f.batch, p)
					}
				}
			}
		}
		for _, f := range flows {
			if len(f.batch) == 0 || f.got != nil {
				continue
			}
			var t0 time.Duration
			if tr != nil {
				t0 = tr.beginBatch(f, f.batch)
			}
			done, _ := f.eng.HandleBatchFrom(0, f.batch)
			if tr != nil {
				tr.endBatch(f, t0)
			}
			if done {
				if err := r.collect(f); err != nil {
					return err
				}
				left--
			}
		}
	}
	return nil
}

func flowOf(flows []*flow, session uint16) *flow {
	for _, f := range flows {
		if f.sess.Config().Session == session {
			return f
		}
	}
	return nil
}
