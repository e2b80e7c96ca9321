// Package harness wires a complete, deterministic multi-source fountain
// testbed: N mirror services (one core.Session each under a real
// service.Service registry, staggered carousel phases advertised over the
// control path), each transmitting onto its own in-process lossy
// transport.Bus, pumped on a shared virtual clock, into any number of
// source-aware client engines with per-source, per-layer loss injection.
//
// The whole server→service→transport→client→decode round-trip runs without
// sockets, sleeps, or wall-clock pacing, so a scenario with 5-20% injected
// loss across three mirrors executes in milliseconds and produces
// bit-identical packet interleavings on every run — the in-process
// equivalent of the paper's inter-campus testbed (§7.3) extended to the §8
// mirrored-server application. Scenario tests assert on exact round counts
// instead of timing margins.
package harness

import (
	"fmt"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/transport"
)

// LossFunc builds the loss process of one (mirror, layer) feed of a
// receiver. Return nil for a lossless feed. Implementations draw their
// randomness from a per-receiver RNG (netsim.ReceiverRNG) to keep the
// testbed deterministic.
type LossFunc func(mirror, layer int) netsim.LossProcess

// Config describes a testbed.
type Config struct {
	// Mirrors is the number of mirror servers (default 1).
	Mirrors int
	// Data is the file every mirror carries.
	Data []byte
	// Session is the shared session configuration; all mirrors use the
	// same codec, seed and session id, so their encodings are identical
	// and their packets interchangeable (§8).
	Session core.Config
	// Rate is each mirror's carousel speed in rounds per virtual second
	// (default 100). All mirrors run at the same rate; relative speed
	// differences belong in scenario-specific pumps.
	Rate int
	// Phases are the per-mirror carousel start rounds. nil = stagger
	// mirrors evenly across one full carousel cycle, the §8 prescription
	// for minimizing early duplicates.
	Phases []int
	// Trace attaches a flight recorder to the whole testbed: mirror i's
	// send path is tagged Src=i, receiver j's intake and channel events
	// Actor=j, and the recorder's clock is switched to the pump's virtual
	// time (nanoseconds). Everything — all mirrors, channels and receivers
	// run on the single pump goroutine — emits through shard 0, so the
	// merged stream preserves causal emission order and a deterministic
	// scenario's trace is bit-identical across runs.
	Trace *evtrace.Recorder
}

// Mirror is one mirror server of the testbed.
type Mirror struct {
	Service  *service.Service
	Bus      *transport.Bus
	Carousel *core.Carousel
	// Info is the descriptor obtained over the mirror's control path
	// (service.HandleControl), phase included — exactly what a real
	// client would learn from a HELLO.
	Info proto.SessionInfo
	down atomic.Bool
}

// Rounds returns the number of carousel rounds this mirror has emitted.
func (m *Mirror) Rounds() int { return m.Carousel.Rounds() }

// Crash takes the mirror down hard: its carousel stops emitting and —
// like a real server restart — its membership table is gone, so even
// after Restart no packets flow until a client re-subscribes (the
// receiver's rejoin watchdog, or an explicit Reattach).
func (m *Mirror) Crash() {
	m.down.Store(true)
	m.Bus.DropAll()
}

// Restart brings a crashed mirror back. The carousel resumes from where
// it stopped with an empty membership table.
func (m *Mirror) Restart() { m.down.Store(false) }

// Testbed is a wired set of mirrors and receivers on one virtual clock.
type Testbed struct {
	Mirrors   []*Mirror
	Receivers []*Receiver
	cfg       Config
	sess      *core.Session
	pump      *transport.Pump
}

// CyclePeriod returns the number of rounds after which a full-subscription
// receiver has seen the entire encoding once: n for the single-layer
// randomized carousel, the reverse-binary block size 2^(g-1) for g layers.
// A rateless session has no cycle — CyclePeriod returns 0 and phase
// staggering is replaced by uncoordinated starts (see New).
func CyclePeriod(sess *core.Session) int {
	if sess.Rateless() {
		return 0
	}
	if g := sess.Config().Layers; g > 1 {
		return 1 << uint(g-1)
	}
	return sess.Codec().N()
}

// uncoordinatedStart returns mirror i's default start round for a rateless
// session: a pseudorandom draw from a 2^26-round range, the deterministic
// stand-in for "this mirror has been running for an arbitrary, unknown
// time". Unlike the fixed-rate phase trick, nothing about the cycle length
// or the mirror count enters the computation — distinct arbitrary starts
// are all the fountain property needs, and two mirrors whose index streams
// would overlap within a download horizon are improbable rather than
// engineered away.
func uncoordinatedStart(seed int64, mirror int) int {
	z := uint64(seed) ^ (uint64(mirror)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) & (1<<26 - 1))
}

// New builds the mirrors: one session encoding shared by all (identical by
// construction — same data, codec and seed), one service + bus per mirror,
// phases staggered unless overridden, and one pump source per mirror
// stepping its carousel through the service's counting sender.
func New(cfg Config) (*Testbed, error) {
	if cfg.Mirrors < 1 {
		cfg.Mirrors = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	sess, err := core.NewSession(cfg.Data, cfg.Session)
	if err != nil {
		return nil, err
	}
	if cfg.Phases == nil {
		if sess.Rateless() {
			// No cycle to stagger across: every mirror simply starts at an
			// arbitrary, uncoordinated stream position.
			for i := 0; i < cfg.Mirrors; i++ {
				cfg.Phases = append(cfg.Phases, uncoordinatedStart(cfg.Session.Seed, i))
			}
		} else {
			cycle := CyclePeriod(sess)
			for i := 0; i < cfg.Mirrors; i++ {
				cfg.Phases = append(cfg.Phases, cycle*i/cfg.Mirrors)
			}
		}
	}
	if len(cfg.Phases) != cfg.Mirrors {
		return nil, fmt.Errorf("harness: %d phases for %d mirrors", len(cfg.Phases), cfg.Mirrors)
	}
	tb := &Testbed{cfg: cfg, sess: sess, pump: transport.NewPump()}
	if cfg.Trace != nil {
		// Virtual-time stamps: the trace of a deterministic scenario becomes
		// a pure function of its seeds.
		pump := tb.pump
		cfg.Trace.SetClock(func() int64 { return int64(pump.Now() * 1e9) })
	}
	id := cfg.Session.Session
	for i := 0; i < cfg.Mirrors; i++ {
		bus := transport.NewBus(sess.Config().Layers)
		svc := service.New(bus, service.Config{BaseRate: cfg.Rate, Trace: cfg.Trace, TraceID: uint16(i)})
		car, err := svc.AddManual(sess, cfg.Rate, cfg.Phases[i])
		if err != nil {
			svc.Close()
			tb.Close()
			return nil, err
		}
		info, err := proto.ParseSessionInfo(svc.HandleControl(proto.AppendHelloFor(nil, id)))
		if err != nil {
			svc.Close()
			tb.Close()
			return nil, fmt.Errorf("harness: mirror %d control: %w", i, err)
		}
		m := &Mirror{Service: svc, Bus: bus, Carousel: car, Info: info}
		tb.Mirrors = append(tb.Mirrors, m)
		// EmitRound is the scheduler's own batched emission code:
		// the harness pumps it on a virtual clock, so every deterministic
		// scenario test doubles as an oracle that the zero-copy send path
		// emits bit-identical packets in identical order.
		tb.pump.Add(0, 1/float64(cfg.Rate), func() error {
			if m.down.Load() {
				return nil
			}
			return m.Service.EmitRound(m.Carousel)
		})
	}
	return tb, nil
}

// Receiver is one source-aware client attached to every mirror.
type Receiver struct {
	Engine  *client.Engine
	clients []*transport.BusClient
	tb      *Testbed
	err     error
	// doneRounds[m] is mirror m's emitted-round count at the moment this
	// receiver's decoder completed (-1 while incomplete).
	doneRounds []int
	complete   bool
	doneTime   float64 // virtual time of completion
	// got[m] counts packets delivered by mirror m's feed (post-loss,
	// pre-decode) — the rejoin watchdog's liveness signal.
	got []uint64
}

// AddReceiver attaches a receiver subscribed at startLevel on every
// mirror, with loss (may be nil) building each (mirror, layer) feed's loss
// process. The engine's effective level (worst-source rule) drives all
// subscriptions together.
func (tb *Testbed) AddReceiver(startLevel int, loss LossFunc) (*Receiver, error) {
	return tb.AddReceiverWith(ReceiverOpts{StartLevel: startLevel, Loss: loss})
}

// ReceiverOpts configures a receiver's hostile-channel conditions beyond
// plain loss. Every knob is deterministic: same options, same seeds, same
// delivery sequence on every run.
type ReceiverOpts struct {
	// StartLevel is the initial subscription level on every mirror.
	StartLevel int
	// Loss builds each (mirror, layer) feed's loss process (may be nil).
	Loss LossFunc
	// Corrupt builds a per-mirror corruption process: each "lost" draw
	// instead flips one byte of the delivered copy, exercising the CRC32C
	// integrity check end to end (nil = no corruption).
	Corrupt func(mirror int) netsim.LossProcess
	// Dup builds a per-mirror duplication process: each "lost" draw
	// delivers the packet twice (nil = no duplication).
	Dup func(mirror int) netsim.LossProcess
	// ReorderDepth > 0 inserts a reordering buffer of that depth on every
	// mirror feed, releasing packets in a seed-determined shuffle.
	ReorderDepth int
	ReorderSeed  int64
	// WakeFor/SleepFor > 0 duty-cycle the receiver: awake for WakeFor
	// virtual seconds, then deaf for SleepFor, repeating — the §7.2
	// sleep/resume client. Packets sent while asleep are gone (UDP).
	WakeFor, SleepFor float64
	// RejoinInterval > 0 arms a watchdog that fires every interval of
	// virtual time and re-subscribes to any mirror that delivered nothing
	// since the previous check — the in-process model of the client's
	// control-plane rejoin after a mirror crash/restart wiped its
	// membership table.
	RejoinInterval float64
	// Rejoined, if non-nil, is incremented each time the watchdog
	// re-subscribes to a silent mirror (observability for tests).
	Rejoined *int
}

// AddReceiverWith attaches a receiver with full hostile-channel options.
func (tb *Testbed) AddReceiverWith(opts ReceiverOpts) (*Receiver, error) {
	r := &Receiver{tb: tb}
	r.doneRounds = make([]int, len(tb.Mirrors))
	for i := range r.doneRounds {
		r.doneRounds[i] = -1
	}
	eng, err := client.NewMultiSource(tb.Mirrors[0].Info, len(tb.Mirrors), opts.StartLevel, func(level int) {
		for _, bc := range r.clients {
			bc.SetLevel(level)
		}
	})
	if err != nil {
		return nil, err
	}
	r.Engine = eng
	actor := uint16(len(tb.Receivers))
	eng.SetTrace(tb.cfg.Trace.Shard(0), actor)
	r.got = make([]uint64, len(tb.Mirrors))
	lastGot := make([]uint64, len(tb.Mirrors))
	for mi, m := range tb.Mirrors {
		src := mi
		bc := m.Bus.NewClient(opts.StartLevel, nil, func(layer int, pkt []byte) {
			r.got[src]++
			if r.err != nil || r.Engine.Done() {
				return
			}
			done, err := r.Engine.HandlePacketFrom(src, pkt)
			if err != nil {
				r.err = err
				return
			}
			if done {
				r.markDone()
			}
		})
		if opts.Loss != nil {
			for layer := 0; layer < tb.sess.Config().Layers; layer++ {
				bc.SetLayerLoss(layer, opts.Loss(src, layer))
			}
		}
		if opts.Corrupt != nil {
			bc.SetCorruption(opts.Corrupt(src))
		}
		if opts.Dup != nil {
			bc.SetDuplication(opts.Dup(src))
		}
		if opts.ReorderDepth > 0 {
			bc.SetReorder(opts.ReorderDepth, opts.ReorderSeed+int64(src))
		}
		bc.SetTrace(tb.cfg.Trace.Shard(0), tb.cfg.Session.Session, uint16(src), actor)
		r.clients = append(r.clients, bc)
	}
	if opts.WakeFor > 0 && opts.SleepFor > 0 {
		period := opts.WakeFor + opts.SleepFor
		tb.pump.Add(opts.WakeFor, period, func() error {
			for _, bc := range r.clients {
				bc.SetAsleep(true)
			}
			return nil
		})
		tb.pump.Add(period, period, func() error {
			for _, bc := range r.clients {
				bc.SetAsleep(false)
			}
			return nil
		})
	}
	if opts.RejoinInterval > 0 {
		tb.pump.Add(opts.RejoinInterval, opts.RejoinInterval, func() error {
			if r.Engine.Done() || r.err != nil {
				return nil
			}
			for i, bc := range r.clients {
				if r.got[i] == lastGot[i] {
					bc.Reattach()
					if opts.Rejoined != nil {
						*opts.Rejoined++
					}
				}
				lastGot[i] = r.got[i]
			}
			return nil
		})
	}
	tb.Receivers = append(tb.Receivers, r)
	return r, nil
}

func (r *Receiver) markDone() {
	r.complete = true
	r.doneTime = r.tb.pump.Now()
	for i, m := range r.tb.Mirrors {
		r.doneRounds[i] = m.Rounds()
	}
}

// FaultStats returns the ground-truth fault accounting of this receiver's
// feed from one mirror: what the in-process channel verifiably delivered,
// dropped, corrupted, and duplicated. Acceptance tests reconcile metrics
// registries and client counters against these.
func (r *Receiver) FaultStats(mirror int) transport.FaultStats {
	return r.clients[mirror].FaultStats()
}

// Done reports whether the receiver's decoder completed.
func (r *Receiver) Done() bool { return r.Engine.Done() }

// Err returns the first packet-handling error, if any.
func (r *Receiver) Err() error { return r.err }

// RoundsToDecode returns the largest per-mirror emitted-round count at the
// moment the decoder completed — the "carousel rounds" cost of the
// download, comparable across testbeds with different mirror counts
// (mirrors run at equal rates, so this is proportional to virtual time).
// It returns -1 while incomplete.
func (r *Receiver) RoundsToDecode() int {
	if !r.complete {
		return -1
	}
	max := 0
	for _, n := range r.doneRounds {
		if n > max {
			max = n
		}
	}
	return max
}

// TimeToDecode returns the virtual time at which the decoder completed
// (-1 while incomplete).
func (r *Receiver) TimeToDecode() float64 {
	if !r.complete {
		return -1
	}
	return r.doneTime
}

// File reassembles and verifies the receiver's download.
func (r *Receiver) File() ([]byte, error) { return r.Engine.File() }

// At schedules fn to run once at virtual time t — scenario scripting for
// crash/restart and similar one-shot events.
func (tb *Testbed) At(t float64, fn func()) {
	fired := false
	tb.pump.Add(t, 1e18, func() error {
		if !fired {
			fired = true
			fn()
		}
		return nil
	})
}

// Run pumps the mirrors' carousels in virtual-time order until every
// receiver has decoded (or errored), or maxRounds rounds have been emitted
// per mirror. It returns the total pump steps executed.
func (tb *Testbed) Run(maxRounds int) (steps int, err error) {
	total := maxRounds * len(tb.Mirrors)
	return tb.pump.Run(total, func() bool {
		for _, r := range tb.Receivers {
			if !r.Engine.Done() && r.err == nil {
				return false
			}
		}
		return true
	})
}

// Close tears the mirrors down (services, registries, caches).
func (tb *Testbed) Close() {
	for _, m := range tb.Mirrors {
		m.Service.Close()
	}
	for _, r := range tb.Receivers {
		for _, bc := range r.clients {
			bc.Close()
		}
	}
}
