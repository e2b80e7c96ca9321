// Dispersity demonstrates the §8 "dispersity routing" application (after
// Rabin's information dispersal): a source sprays fountain packets across
// several network paths with very different loss and delay; the
// destination reconstructs as soon as enough packets arrive over any
// combination of paths, without caring which path delivered what.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"

	fountain "repro"
	"repro/internal/netsim"
)

func main() {
	rng := rand.New(rand.NewSource(13))
	lossRng := netsim.NewRNG(13)
	payload := make([]byte, 128<<10)
	rng.Read(payload)

	cfg := fountain.DefaultConfig()
	cfg.Layers = 1
	sess, err := fountain.NewSession(payload, cfg)
	if err != nil {
		log.Fatal(err)
	}
	info := sess.Info()

	// Four paths: (loss process, one-way delay in ticks). The congested
	// path is bursty (Gilbert-Elliott), the others Bernoulli.
	type path struct {
		name  string
		loss  netsim.LossProcess
		delay int
		used  int
	}
	paths := []*path{
		{name: "terrestrial-1", loss: &netsim.Bernoulli{P: 0.05, Rng: lossRng}, delay: 10},
		{name: "terrestrial-2", loss: &netsim.Bernoulli{P: 0.15, Rng: lossRng}, delay: 14},
		{name: "congested", loss: &netsim.GilbertElliott{PGB: 0.05, PBG: 0.2, LossGood: 0.05, LossBad: 0.9, Rng: lossRng}, delay: 40},
		{name: "satellite", loss: &netsim.Bernoulli{P: 0.30, Rng: lossRng}, delay: 120},
	}

	// The destination: one client engine, each path a source of its own.
	rcv, err := fountain.NewClient(info, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	type inflight struct {
		at  int
		idx int
		src int
		p   *path
	}
	var queue []inflight
	var idxs []int
	var pkt []byte
	tick := 0
	next := 0 // carousel position
	n := int(info.N)
	doneAt := -1
	for doneAt < 0 {
		// Source sprays one packet per path per tick, round-robin over the
		// encoding.
		for src, p := range paths {
			idxs = sess.AppendCarouselIndices(idxs[:0], 0, next)
			next++
			if !p.loss.Lose() {
				queue = append(queue, inflight{at: tick + p.delay, idx: idxs[0], src: src, p: p})
			}
		}
		// Deliveries due this tick (sorted for determinism).
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].at < queue[j].at })
		for len(queue) > 0 && queue[0].at <= tick {
			d := queue[0]
			queue = queue[1:]
			d.p.used++
			pkt = sess.AppendPacket(pkt[:0], d.idx, 0, uint32(tick), 0)
			if done, _ := rcv.HandlePacketFrom(d.src, pkt); done {
				doneAt = tick
				break
			}
		}
		tick++
		if tick > 100*n {
			log.Fatal("transfer never completed")
		}
	}
	got, err := rcv.File()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("payload corrupted")
	}
	fmt.Printf("delivered %d bytes over 4 dispersed paths in %d ticks\n", len(got), doneAt)
	for _, p := range paths {
		fmt.Printf("  %-14s delay=%-4d delivered %d packets\n", p.name, p.delay, p.used)
	}
	eta, _, _ := rcv.Efficiency()
	fmt.Printf("efficiency eta=%.3f — packets were useful regardless of path\n", eta)
}
