// Package transport carries fountain packets from a server to clients over
// two interchangeable substrates:
//
//   - Bus: an in-process multicast channel with per-client loss injection.
//     Delivery is synchronous, so experiments (Figure 8) run with a virtual
//     clock at full CPU speed and perfectly reproducibly — this substitutes
//     for the paper's Berkeley/CMU/Cornell testbed (see DESIGN.md).
//   - UDP: real sockets. Clients register per-layer subscriptions with the
//     server over a tiny datagram protocol standing in for IGMP joins, and
//     the server unicasts each layer's packets to its subscribers; the
//     control channel (session info over UDP unicast) matches §7.3.
package transport

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/evtrace"
	"repro/internal/netsim"
)

// Handler consumes packets delivered on a subscribed layer. pkt is only
// valid for the duration of the call: senders on the zero-alloc send path
// reuse their buffers as soon as SendBatch returns, so a
// handler that keeps packet bytes must copy them (every decoder in this
// repository already copies on Add).
type Handler func(layer int, pkt []byte)

// Bus is the in-process lossy multicast substrate.
type Bus struct {
	layers int
	mu     sync.Mutex
	// subs lists the attached clients in join order, the order every packet
	// reaches them in, so clients that share a loss process draw from it
	// reproducibly. It is copy-on-write — replaced on a membership change,
	// never mutated — so senders read it without allocating and the batched
	// send path stays zero-alloc end to end.
	subs []*BusClient
}

// NewBus creates a bus with the given number of layers (groups).
func NewBus(layers int) *Bus {
	return &Bus{layers: layers}
}

// attach appends c to the subscribers unless it is there already.
func (b *Bus) attach(c *BusClient) {
	b.mu.Lock()
	if !slices.Contains(b.subs, c) {
		b.subs = append(slices.Clip(b.subs), c)
	}
	b.mu.Unlock()
}

// Layers returns the group count.
func (b *Bus) Layers() int { return b.layers }

// SubscriberTotal returns the number of attached clients (the Bus analogue
// of UDPServer.SubscriberTotal, so stats snapshots work over either
// substrate).
func (b *Bus) SubscriberTotal() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// DropAll detaches every subscriber without closing them — the membership
// table a crashed-and-restarted server would have lost. Clients stop
// receiving until they Reattach (the in-process analogue of re-sending
// their subscriptions to the restarted server).
func (b *Bus) DropAll() {
	b.mu.Lock()
	b.subs = nil
	b.mu.Unlock()
}

// SendBatch delivers a batch of packets on a layer, in order, to every
// subscribed client — one subscriber-set snapshot for the whole batch —
// applying each client's loss process. Delivery is synchronous (the
// handlers run on the caller's goroutine): packet by packet, each to every
// client in turn.
func (b *Bus) SendBatch(layer int, pkts [][]byte) error {
	if layer < 0 || layer >= b.layers {
		return fmt.Errorf("transport: layer %d out of range", layer)
	}
	b.mu.Lock()
	clients := b.subs
	b.mu.Unlock()
	for _, pkt := range pkts {
		for _, c := range clients {
			c.deliver(layer, pkt)
		}
	}
	return nil
}

// BusClient is one receiver attached to a Bus.
//
// Beyond the loss process, a client can inject the other faults of a
// hostile channel, each driven by a deterministic process so scenarios
// reproduce bit for bit: corruption (a delivered packet has one byte
// flipped — the integrity tag must catch it), duplication (a packet is
// delivered twice), reordering (packets pass through a bounded shuffle
// buffer), and duty-cycling (an asleep client misses everything, the
// radio-off state of wireless receivers).
type BusClient struct {
	bus     *Bus
	mu      sync.Mutex
	level   int // subscribed to layers 0..level
	loss    netsim.LossProcess
	byLayer []netsim.LossProcess // optional per-layer override
	handler Handler
	closed  bool
	asleep  bool

	corrupt netsim.LossProcess // fires = flip one byte of the delivery
	dup     netsim.LossProcess // fires = deliver the packet twice
	faultN  uint64             // deterministic corruption-position walk
	scratch []byte             // corrupted copy (the shared buffer must stay intact)

	reorderDepth int // > 0 enables the shuffle buffer
	reorderSeed  uint64
	reorderN     uint64
	rq           []queuedPacket

	// Fault-pipeline ground truth: every decision the pipeline takes is
	// counted, and recorded while a recorder is on, at the moment it is
	// taken, so a harness can assert a receiver's, a metrics registry's or
	// a trace's view against what the channel verifiably did. Read
	// lock-free by FaultStats during live traffic.
	delivered  evtrace.Counted // handler invocations (duplicate copies included)
	lost       evtrace.Counted // drops by the loss process (not sleep/level filtering)
	corrupted  evtrace.Counted // deliveries with the one-byte flip applied
	duplicated evtrace.Counted // extra copies delivered by the duplication process
}

// FaultStats is a BusClient's ground-truth fault accounting: what the
// in-process channel actually did to this client's traffic.
type FaultStats struct {
	Delivered  uint64 // handler invocations, duplicate copies included
	Lost       uint64 // packets dropped by the loss process
	Corrupted  uint64 // packets delivered with a flipped byte
	Duplicated uint64 // extra copies delivered by the duplication process
}

// FaultStats returns the client's fault-pipeline counts. Packets still
// held by the reorder buffer are in none of the counts — flush with
// SetReorder(0, 0) before reconciling exact totals.
func (c *BusClient) FaultStats() FaultStats {
	return FaultStats{
		Delivered:  c.delivered.Load(),
		Lost:       c.lost.Load(),
		Corrupted:  c.corrupted.Load(),
		Duplicated: c.duplicated.Load(),
	}
}

type queuedPacket struct {
	layer int
	pkt   []byte
}

// splitmix64 is the mixing function behind every deterministic draw in the
// fault layer.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewClient attaches a client subscribed to layers 0..level with the given
// loss process (nil = lossless) and delivery handler.
func (b *Bus) NewClient(level int, loss netsim.LossProcess, h Handler) *BusClient {
	c := &BusClient{bus: b, level: level, loss: loss, handler: h}
	b.attach(c)
	return c
}

// SetLayerLoss overrides the client's loss process for one layer: that
// layer's deliveries consult lp instead of the client-wide process (nil
// restores the default). Heterogeneous per-layer loss is how the harness
// models paths whose congestion hits the high-rate layers first.
func (c *BusClient) SetLayerLoss(layer int, lp netsim.LossProcess) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if layer < 0 || layer >= c.bus.layers {
		return
	}
	if c.byLayer == nil {
		c.byLayer = make([]netsim.LossProcess, c.bus.layers)
	}
	c.byLayer[layer] = lp
}

// SetCorruption sets the client's corruption process: each delivery for
// which lp fires arrives with one byte flipped (position walks the packet
// deterministically), in a private copy — other subscribers of the same
// send still receive the intact bytes. nil disables corruption.
func (c *BusClient) SetCorruption(lp netsim.LossProcess) {
	c.mu.Lock()
	c.corrupt = lp
	c.mu.Unlock()
}

// SetDuplication sets the client's duplication process: each delivery for
// which lp fires is handed to the handler twice back-to-back (the
// duplicated delivery repeats the corrupted bytes if corruption also
// fired). nil disables duplication.
func (c *BusClient) SetDuplication(lp netsim.LossProcess) {
	c.mu.Lock()
	c.dup = lp
	c.mu.Unlock()
}

// SetReorder routes deliveries through a depth-d shuffle buffer: each
// arriving packet is queued (copied — the sender reuses its buffers), and
// once the buffer holds more than depth packets a pseudorandomly chosen
// one (seeded, deterministic) is released. Sustained traffic therefore
// arrives in a storm-reordered but reproducible order. depth <= 0 disables
// reordering and flushes anything still queued, in queue order.
func (c *BusClient) SetReorder(depth int, seed int64) {
	c.mu.Lock()
	c.reorderDepth = depth
	c.reorderSeed = uint64(seed)
	c.reorderN = 0
	var flush []queuedPacket
	if depth <= 0 && len(c.rq) > 0 {
		flush = c.rq
		c.rq = nil
	}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, q := range flush {
		c.hand(q.layer, q.pkt, false)
	}
}

// SetTrace attaches a flight-recorder shard and the identity (session,
// source, receiver) stamped on this client's channel events; nil detaches.
// Every ground-truth count — deliver/loss/corrupt/duplicate — is then also
// one event about the packet (A = wire length).
func (c *BusClient) SetTrace(sh *evtrace.Shard, sess, src, actor uint16) {
	c.delivered.Trace(sh, evtrace.EvChDeliver, sess, src, actor)
	c.lost.Trace(sh, evtrace.EvChLoss, sess, src, actor)
	c.corrupted.Trace(sh, evtrace.EvChCorrupt, sess, src, actor)
	c.duplicated.Trace(sh, evtrace.EvChDup, sess, src, actor)
}

// SetAsleep pauses (true) or resumes (false) the client: an asleep client
// misses every delivery, the duty-cycled radio-off state of wireless
// receivers. Packets sent while asleep are simply gone — on resume the
// receiver sees serial gaps, exactly as after a real sleep.
func (c *BusClient) SetAsleep(asleep bool) {
	c.mu.Lock()
	c.asleep = asleep
	c.mu.Unlock()
}

// Reattach re-registers a detached client with its bus (a no-op while
// already attached; closed clients stay closed). This is the in-process
// analogue of re-sending a SUB datagram to a server that crashed and came
// back with an empty membership table.
func (c *BusClient) Reattach() {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	c.bus.attach(c)
}

// SetLevel changes the client's cumulative subscription level.
func (c *BusClient) SetLevel(level int) {
	c.mu.Lock()
	c.level = level
	c.mu.Unlock()
}

// Level returns the current subscription level.
func (c *BusClient) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Close detaches the client from the bus; the others keep their order.
func (c *BusClient) Close() {
	b := c.bus
	b.mu.Lock()
	if i := slices.Index(b.subs, c); i >= 0 {
		b.subs = slices.Concat(b.subs[:i], b.subs[i+1:])
	}
	b.mu.Unlock()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// deliver applies the client's fault pipeline to one sent packet: drop
// (asleep, loss process), corrupt (byte flip in a private copy), reorder
// (bounded shuffle buffer), duplicate. All fault decisions draw from
// deterministic processes under the client lock, so a scenario's delivery
// sequence is a pure function of its seeds.
func (c *BusClient) deliver(layer int, pkt []byte) {
	c.mu.Lock()
	if c.closed || c.asleep || layer > c.level {
		c.mu.Unlock()
		return
	}
	lp := c.loss
	if c.byLayer != nil && c.byLayer[layer] != nil {
		lp = c.byLayer[layer]
	}
	if lp != nil && lp.Lose() {
		c.lost.Add(1, uint8(layer), uint64(len(pkt)), 0)
		c.mu.Unlock()
		return
	}
	if c.corrupt != nil && c.corrupt.Lose() && len(pkt) > 0 {
		// Flip one byte in a private copy: the sender's (reused, shared)
		// buffer must reach every other subscriber intact.
		c.scratch = append(c.scratch[:0], pkt...)
		c.scratch[int(c.faultN%uint64(len(c.scratch)))] ^= 0x55
		c.corrupted.Add(1, uint8(layer), uint64(len(pkt)), 0)
		pkt = c.scratch
	}
	c.faultN++
	dup := c.dup != nil && c.dup.Lose()
	if c.reorderDepth > 0 {
		// Queue a copy (the caller reuses pkt as soon as SendBatch returns) and
		// release a pseudorandom queued packet once the buffer is full.
		c.rq = append(c.rq, queuedPacket{layer: layer, pkt: append([]byte(nil), pkt...)})
		if len(c.rq) <= c.reorderDepth {
			c.mu.Unlock()
			return
		}
		i := int(splitmix64(c.reorderSeed^c.reorderN) % uint64(len(c.rq)))
		c.reorderN++
		layer, pkt = c.rq[i].layer, c.rq[i].pkt
		last := len(c.rq) - 1
		c.rq[i] = c.rq[last]
		c.rq[last] = queuedPacket{}
		c.rq = c.rq[:last]
	}
	c.mu.Unlock()
	c.hand(layer, pkt, dup)
}

// hand gives one packet the pipeline released to the handler — twice when
// the duplication process fired — counting every copy. It runs without the
// client lock: a handler may call back into the client.
func (c *BusClient) hand(layer int, pkt []byte, dup bool) {
	if c.handler == nil { // set once, by NewClient
		return
	}
	c.delivered.Add(1, uint8(layer), uint64(len(pkt)), 0)
	c.handler(layer, pkt)
	if dup {
		c.duplicated.Add(1, uint8(layer), uint64(len(pkt)), 0)
		c.delivered.Add(1, uint8(layer), uint64(len(pkt)), 0)
		c.handler(layer, pkt)
	}
}

// Pump is a deterministic virtual-clock scheduler for bus-based testbeds:
// each registered source (a mirror's carousel, a background traffic
// generator, ...) fires at a fixed virtual-time interval, and Run advances
// the clock from event to event — no sleeps, no goroutines, bit-identical
// across runs. Ties fire in registration order, so interleaving is
// reproducible even for sources at identical rates.
//
// This substitutes wall-clock pacing (the service scheduler) in tests: a full
// multi-mirror round-trip over lossy buses executes at CPU speed with a
// stable packet interleaving, which is what makes loss-injection scenarios
// assertable down to exact packet counts.
type Pump struct {
	now  float64
	srcs []*pumpSource
}

type pumpSource struct {
	interval float64
	next     float64
	step     func() error
}

// NewPump creates an empty pump at virtual time 0.
func NewPump() *Pump { return &Pump{} }

// Add registers a source firing every `interval` virtual seconds, first at
// `start`. Typical use: one source per mirror with interval = 1/rate.
func (p *Pump) Add(start, interval float64, step func() error) {
	if interval <= 0 {
		interval = 1
	}
	p.srcs = append(p.srcs, &pumpSource{interval: interval, next: start, step: step})
}

// Now returns the current virtual time.
func (p *Pump) Now() float64 { return p.now }

// Run fires sources in virtual-time order until done() reports true
// (checked after every step), maxSteps steps have run, or a step fails. It
// returns the number of steps executed and the first step error, if any.
func (p *Pump) Run(maxSteps int, done func() bool) (steps int, err error) {
	if len(p.srcs) == 0 {
		return 0, nil
	}
	for steps = 0; steps < maxSteps; steps++ {
		if done != nil && done() {
			return steps, nil
		}
		src := p.srcs[0]
		for _, s := range p.srcs[1:] {
			if s.next < src.next {
				src = s
			}
		}
		if src.next > p.now {
			p.now = src.next
		}
		src.next += src.interval
		if err := src.step(); err != nil {
			return steps + 1, err
		}
	}
	return steps, nil
}
