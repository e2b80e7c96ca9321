// Package losstrace generates, serializes and replays packet-loss traces in
// the style of the Yajnik/Kurose/Towsley MBone measurements the paper uses
// in §6.4. The original traces are not redistributable (and the MBone is
// long gone), so we synthesize the documented characteristics: per-receiver
// loss rates from under 1% to over 30% with a population mean near 18%,
// bursty losses from a two-state Gilbert-Elliott process, and hour-long
// sessions (§6.4; see DESIGN.md for the substitution rationale).
package losstrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/netsim"
)

// Trace is one receiver's packet-fate sequence: Lost[i] reports whether
// the i-th packet transmitted during the session was lost.
type Trace struct {
	Receiver string
	Lost     []bool
}

// LossRate returns the fraction of lost packets.
func (t *Trace) LossRate() float64 {
	if len(t.Lost) == 0 {
		return 0
	}
	n := 0
	for _, l := range t.Lost {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(t.Lost))
}

// Replay returns a netsim.LossProcess that walks the trace cyclically
// starting at `offset` (the paper samples traces from random initial
// points, §6.4).
func (t *Trace) Replay(offset int) netsim.LossProcess {
	if len(t.Lost) == 0 {
		return &constLoss{}
	}
	return &replay{t: t, pos: offset % len(t.Lost)}
}

type constLoss struct{}

func (*constLoss) Lose() bool { return false }

type replay struct {
	t   *Trace
	pos int
}

func (r *replay) Lose() bool {
	l := r.t.Lost[r.pos]
	r.pos++
	if r.pos == len(r.t.Lost) {
		r.pos = 0
	}
	return l
}

// GenParams controls synthetic trace generation.
type GenParams struct {
	Receivers int     // number of receivers (the paper uses 120)
	Length    int     // packets per trace (an hour at ~8 pkt/s ≈ 28800)
	MeanLoss  float64 // target population mean loss (paper ≈ 0.18)
	Seed      int64
}

// DefaultGenParams mirrors the §6.4 population.
func DefaultGenParams() GenParams {
	return GenParams{Receivers: 120, Length: 28800, MeanLoss: 0.18, Seed: 1998}
}

// Generate synthesizes a heterogeneous population of bursty traces. Each
// receiver draws a base loss rate from a skewed distribution spanning
// <1%..35%+ (rescaled to hit the target mean), then runs a Gilbert-Elliott
// chain whose bad state carries most of the loss in bursts.
func Generate(p GenParams) []*Trace {
	if p.Receivers <= 0 || p.Length <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	rates := make([]float64, p.Receivers)
	sum := 0.0
	for i := range rates {
		// Skewed draw: many low-loss receivers, a tail of very lossy ones
		// ("some clients experience large bursts of loss ... over
		// significant periods of time", §6.4).
		r := rng.Float64()
		rates[i] = 0.005 + 0.40*r*r
		sum += rates[i]
	}
	scale := p.MeanLoss * float64(p.Receivers) / sum
	out := make([]*Trace, p.Receivers)
	for i, base := range rates {
		rate := base * scale
		if rate > 0.9 {
			rate = 0.9
		}
		// Gilbert-Elliott with bad-state loss 0.7, residual good-state
		// loss 20% of the target; solve for the stationary bad fraction.
		lossBad := 0.7
		lossGood := 0.2 * rate
		pBad := (rate - lossGood) / (lossBad - lossGood)
		if pBad < 0 {
			pBad = 0
		}
		// Mean bad-burst length ~12 packets.
		pbg := 1.0 / 12
		pgb := pbg * pBad / (1 - pBad)
		g := &netsim.GilbertElliott{
			PGB: pgb, PBG: pbg, LossGood: lossGood, LossBad: lossBad,
			Rng: netsim.NewRNG(uint64(p.Seed + int64(i)*7919)),
		}
		tr := &Trace{Receiver: fmt.Sprintf("r%03d", i), Lost: make([]bool, p.Length)}
		for j := range tr.Lost {
			tr.Lost[j] = g.Lose()
		}
		out[i] = tr
	}
	return out
}

// MeanLoss returns the average loss rate of a trace set.
func MeanLoss(traces []*Trace) float64 {
	if len(traces) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range traces {
		sum += t.LossRate()
	}
	return sum / float64(len(traces))
}

// File format: magic "DFTR", u32 count, then per trace: u16 name length,
// name bytes, u32 packet count, packed loss bitmap.
var magic = [4]byte{'D', 'F', 'T', 'R'}

// Write serializes traces.
func Write(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint32(len(traces))); err != nil {
		return err
	}
	for _, t := range traces {
		if len(t.Receiver) > 65535 {
			return fmt.Errorf("trace: receiver name too long")
		}
		if err := binary.Write(bw, binary.BigEndian, uint16(len(t.Receiver))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Receiver); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, uint32(len(t.Lost))); err != nil {
			return err
		}
		buf := make([]byte, (len(t.Lost)+7)/8)
		for i, l := range t.Lost {
			if l {
				buf[i/8] |= 1 << (uint(i) % 8)
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes traces written by Write.
func Read(r io.Reader) ([]*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var count uint32
	if err := binary.Read(br, binary.BigEndian, &count); err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("trace: implausible trace count %d", count)
	}
	out := make([]*Trace, 0, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.BigEndian, &nameLen); err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		var pkts uint32
		if err := binary.Read(br, binary.BigEndian, &pkts); err != nil {
			return nil, err
		}
		if pkts > 1<<28 {
			return nil, fmt.Errorf("trace: implausible packet count %d", pkts)
		}
		buf := make([]byte, (pkts+7)/8)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		t := &Trace{Receiver: string(name), Lost: make([]bool, pkts)}
		for j := range t.Lost {
			t.Lost[j] = buf[j/8]&(1<<(uint(j)%8)) != 0
		}
		out = append(out, t)
	}
	return out, nil
}
