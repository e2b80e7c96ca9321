package fountain_test

import (
	"bytes"
	"fmt"
	"log"

	fountain "repro"
)

// A whole download on one machine: a service sends a session's carousel
// onto an in-process bus that loses every third packet, and a client
// reconstructs the file from what arrives.
func ExampleNewClient() {
	data := bytes.Repeat([]byte("digital fountain "), 4096) // 69 632 bytes
	cfg := fountain.DefaultConfig()                         // Tornado A, 500-byte payloads
	cfg.Layers = 1                                          // one multicast group
	sess, err := fountain.NewSession(data, cfg)
	if err != nil {
		log.Fatal(err)
	}

	bus := fountain.NewBus(cfg.Layers)
	svc := fountain.NewService(bus, fountain.ServiceConfig{})
	defer svc.Close()
	car, err := svc.AddManual(sess, 0, 0) // stepped by EmitRound, not paced
	if err != nil {
		log.Fatal(err)
	}

	cli, err := fountain.NewClient(sess.Info(), 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	arrived := 0
	link := bus.NewClient(0, nil, func(_ int, pkt []byte) {
		if arrived++; arrived%3 == 0 {
			return // lost in the network
		}
		if _, err := cli.HandlePacket(pkt); err != nil {
			log.Fatal(err)
		}
	})
	defer link.Close()
	for !cli.Done() {
		if err := svc.EmitRound(car); err != nil {
			log.Fatal(err)
		}
	}

	file, err := cli.File() // checked against the session's SHA-256 digest
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(file), bytes.Equal(file, data))
	// Output: 69632 true
}
