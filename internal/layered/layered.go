// Package layered implements the receiver-side congestion control of
// §7.1.1, following the sender-driven scheme of Vicisano, Rizzo and
// Crowcroft [19] that the paper builds on:
//
//   - the sender marks synchronization points (SPs) and generates periodic
//     bursts at double rate on each layer;
//   - a receiver may move UP one subscription level only immediately after
//     an SP, and only if it experienced no loss during the preceding burst
//     (the burst emulates the congestion a join would cause);
//   - a receiver moves DOWN whenever loss since the last SP exceeds a
//     threshold (congestion signal).
//
// No feedback ever flows to the sender — receivers act on local loss
// measurements only, preserving the feedback-free property of the digital
// fountain.
package layered

// Controller tracks loss per epoch and decides subscription moves.
// It is a pure state machine: the transport layer feeds it packet arrivals
// (with serial numbers and flags) and it answers with the level to
// subscribe to. Not safe for concurrent use.
type Controller struct {
	maxLevel int
	level    int

	// DropThreshold is the loss fraction since the last SP above which
	// the receiver drops a level (default 0.20).
	DropThreshold float64
	// MinSamples is the minimum number of packets in an epoch before a
	// decision is taken (default 8).
	MinSamples int

	// Per-epoch accounting (reset at each SP).
	received  int
	lost      int
	burstSeen bool
	burstLost bool

	// Per-layer serial tracking for gap-based loss detection.
	lastSerial map[uint8]uint32
	haveSerial map[uint8]bool
}

// New constructs a controller starting at level 0 with maxLevel the
// highest subscription level (layers-1).
func New(maxLevel int) *Controller {
	return &Controller{
		maxLevel:      maxLevel,
		DropThreshold: 0.20,
		MinSamples:    8,
		lastSerial:    make(map[uint8]uint32),
		haveSerial:    make(map[uint8]bool),
	}
}

// Level returns the current subscription level (subscribe to layers
// 0..Level inclusive).
func (c *Controller) Level() int { return c.level }

// SetLevel forces the level (used by tests and by single-layer clients).
func (c *Controller) SetLevel(l int) {
	if l < 0 {
		l = 0
	}
	if l > c.maxLevel {
		l = c.maxLevel
	}
	c.level = l
}

// OnPacket feeds one received packet's header fields to the controller:
// the layer it arrived on, its per-layer serial, and its flags. It returns
// the (possibly changed) subscription level — changes only happen on SP
// packets, per the protocol.
func (c *Controller) OnPacket(layer uint8, serial uint32, isSP, isBurst bool) int {
	// Gap-based loss detection per layer.
	if c.haveSerial[layer] {
		prev := c.lastSerial[layer]
		if serial > prev {
			gap := int(serial - prev - 1)
			c.lost += gap
			if isBurst && gap > 0 {
				c.burstLost = true
			}
		}
	}
	c.lastSerial[layer] = serial
	c.haveSerial[layer] = true
	c.received++
	if isBurst {
		c.burstSeen = true
	}
	if isSP && layer == 0 {
		c.decide()
	}
	return c.level
}

func (c *Controller) decide() {
	total := c.received + c.lost
	if total < c.MinSamples {
		c.reset()
		return
	}
	lossRate := float64(c.lost) / float64(total)
	switch {
	case lossRate > c.DropThreshold && c.level > 0:
		c.level--
	case lossRate == 0 && c.burstSeen && !c.burstLost && c.level < c.maxLevel:
		// The doubled-rate burst caused no loss: there is headroom for
		// the next layer, whose rate equals the current cumulative rate.
		c.level++
	}
	c.reset()
}

func (c *Controller) reset() {
	c.received = 0
	c.lost = 0
	c.burstSeen = false
	c.burstLost = false
}
