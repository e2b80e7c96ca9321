package core

import "repro/internal/proto"

// Carousel walks a session's transmission schedule as a stream of wire
// packets: it tracks the round counter and the per-layer serial numbers,
// stamps headers (SP and burst markers per §7.1.1, serials for loss
// measurement), and hands each packet to a RoundEmitter. It holds all the
// mutable transmission state, so the Session itself stays immutable and one
// session can feed any number of independent carousels (one per service
// sender goroutine, one per simulated run, ...).
//
// A Carousel is not safe for concurrent use; give each goroutine its own.
type Carousel struct {
	sess    *Session
	serials []uint32
	phase   int
	round   int
	sent    int
	idxBuf  []int // per-round index scratch, reused so emission is alloc-free
}

// NewCarouselAt starts a carousel whose first emitted round is `phase`
// (serials still start at 0 — they are a property of this sender's stream,
// not of the schedule position). Mirrors sharing a session seed start at
// staggered phases so a multi-source receiver sees mostly-disjoint packets
// early in the download (§8). A negative phase is treated as 0.
func NewCarouselAt(sess *Session, phase int) *Carousel {
	if phase < 0 {
		phase = 0
	}
	return &Carousel{
		sess:    sess,
		serials: make([]uint32, sess.Config().Layers),
		phase:   phase,
		round:   phase,
	}
}

// Session returns the session the carousel transmits.
func (c *Carousel) Session() *Session { return c.sess }

// Phase returns the round the carousel started at.
func (c *Carousel) Phase() int { return c.phase }

// Round returns the next round number to be sent.
func (c *Carousel) Round() int { return c.round }

// Rounds returns the number of rounds emitted so far (Round minus the
// starting phase).
func (c *Carousel) Rounds() int { return c.round - c.phase }

// Sent returns the total number of packets emitted so far.
func (c *Carousel) Sent() int { return c.sent }

// RoundEmitter receives one round's packets from NextRoundTo. PacketBuf
// supplies the buffer each packet is built into (length 0, capacity at
// least size — senders hand out buffers they reuse, so steady-state
// emission allocates nothing); Emit receives the filled packet, in
// schedule order, layer by layer. A packet handed to Emit aliases the
// PacketBuf buffer that preceded it.
type RoundEmitter interface {
	PacketBuf(size int) []byte
	Emit(layer int, pkt []byte) error
}

// NextRoundTo emits one full round across all layers and advances the
// round counter. Packets are built in emitter-supplied buffers, so an
// emitter that reuses them makes steady-state emission allocation-free; the bytes and their
// order do not depend on the emitter. The first packet of an SP round
// carries the SP flag; packets of a burst round carry the burst flag (the
// doubled instantaneous rate of §7.1.1 is applied by the caller's pacing,
// not by duplicating content). Emission stops at the first Emit error,
// which is returned.
func (c *Carousel) NextRoundTo(em RoundEmitter) error {
	round := c.round
	c.round++
	layers := c.sess.Config().Layers
	size := c.sess.WireLen()
	for layer := 0; layer < layers; layer++ {
		c.idxBuf = c.sess.AppendCarouselIndices(c.idxBuf[:0], layer, round)
		var flags uint8
		if c.sess.IsSP(layer, round) {
			flags |= proto.FlagSP
		}
		if c.sess.BurstRound(layer, round) {
			flags |= proto.FlagBurst
		}
		for pi, idx := range c.idxBuf {
			f := flags
			if pi > 0 {
				f &^= proto.FlagSP // SP marks only the round's first packet
			}
			c.serials[layer]++
			pkt := c.sess.AppendPacket(em.PacketBuf(size), idx, uint8(layer), c.serials[layer], f)
			if err := em.Emit(layer, pkt); err != nil {
				return err
			}
			c.sent++
		}
	}
	return nil
}

// BurstNext reports whether the upcoming round is a burst round on the base
// layer — the pacing hint a real-time sender uses to send it back-to-back
// with its predecessor (double instantaneous rate).
func (c *Carousel) BurstNext() bool { return c.sess.BurstRound(0, c.round) }
