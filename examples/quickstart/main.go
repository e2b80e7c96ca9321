// Quickstart: encode a file with a Tornado code, push it through a lossy
// channel as a digital fountain, and reconstruct it from whatever arrives.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	fountain "repro"
	"repro/internal/netsim"
)

func main() {
	// The "file" to distribute: 1 MB of data.
	rng := rand.New(rand.NewSource(42))
	file := make([]byte, 1<<20)
	rng.Read(file)

	// A digital fountain session: Tornado A, stretch factor 2.
	cfg := fountain.DefaultConfig()
	cfg.Layers = 1 // single multicast group, randomized carousel
	sess, err := fountain.NewSession(file, cfg)
	if err != nil {
		log.Fatal(err)
	}
	info := sess.Info()
	fmt.Printf("session: k=%d source packets stretched to n=%d\n", info.K, info.N)

	// The fountain: a service emitting the session's carousel onto an
	// in-process multicast bus, one round per call.
	bus := fountain.NewBus(1)
	svc := fountain.NewService(bus, fountain.ServiceConfig{})
	defer svc.Close()
	car, err := svc.AddManual(sess, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A receiver behind a 40%-loss channel.
	rcv, err := fountain.NewClient(info, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	link := bus.NewClient(0, &netsim.Bernoulli{P: 0.4, Rng: netsim.NewRNG(42)}, func(_ int, pkt []byte) {
		if _, err := rcv.HandlePacket(pkt); err != nil {
			log.Fatal(err)
		}
	})
	defer link.Close()
	for !rcv.Done() {
		if err := svc.EmitRound(car); err != nil {
			log.Fatal(err)
		}
	}
	got, err := rcv.File()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		log.Fatal("reconstructed file differs!")
	}
	eta, etaC, etaD := rcv.Efficiency()
	fmt.Printf("reconstructed %d bytes intact after %d transmissions\n", len(got), car.Sent())
	fmt.Printf("reception efficiency: eta=%.3f (coding %.3f x distinctness %.3f)\n", eta, etaC, etaD)
}
