// Mirrored demonstrates the §8 "mirrored data" application over real
// loopback UDP: three independent fountain services carry the same file
// (same codec, same seed — so the encodings are identical) at staggered
// carousel phases, and one client harvests from all of them at once: one
// socket subscribed on every mirror feeds a multi-source engine, each
// datagram tagged with the mirror that sent it. No coordination between the
// mirrors is needed because every packet of the shared encoding is useful
// at most once; the staggered phases, advertised over each mirror's
// control socket, keep early duplicates near zero.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	fountain "repro"
	"repro/internal/proto"
	"repro/internal/transport"
)

func main() {
	rng := rand.New(rand.NewSource(9))
	file := make([]byte, 256<<10)
	rng.Read(file)

	cfg := fountain.DefaultConfig()
	cfg.Layers = 1

	// Three mirrors: each its own UDP socket and service, sharing the
	// session seed (e.g. distributed alongside the file's metadata) but
	// starting the carousel a third of a cycle apart.
	const mirrors = 3
	var (
		dataAddrs []*net.UDPAddr
		ctrlAddrs []*net.UDPAddr
	)
	for i := 0; i < mirrors; i++ {
		sess, err := fountain.NewSession(file, cfg)
		if err != nil {
			log.Fatal(err)
		}
		udp, err := fountain.NewUDPServer("127.0.0.1:0", cfg.Layers)
		if err != nil {
			log.Fatal(err)
		}
		defer udp.Close()
		svc := fountain.NewService(udp, fountain.ServiceConfig{})
		defer svc.Close()
		phase := sess.Codec().N() * i / mirrors
		if err := svc.AddPhased(sess, 4000, phase); err != nil {
			log.Fatal(err)
		}
		ctrl, stopCtrl, err := transport.ServeControlFunc("127.0.0.1:0", svc.HandleControl)
		if err != nil {
			log.Fatal(err)
		}
		defer stopCtrl()
		dataAddrs = append(dataAddrs, udp.Addr())
		ctrlAddrs = append(ctrlAddrs, ctrl)
	}

	// The client learns each mirror's parameters — phase included — over
	// the real control channel; any mirror's descriptor suffices to decode.
	var info fountain.SessionInfo
	for i, ctrl := range ctrlAddrs {
		reply, err := transport.RequestSessionInfo(ctrl, proto.AppendHello(nil), 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		mi, err := proto.ParseSessionInfo(reply)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mirror %d at %s: session %#x phase %d\n", i, dataAddrs[i], mi.Session, mi.Phase)
		if i == 0 {
			info = mi
		}
	}

	cli, err := fountain.NewUDPClientSession(dataAddrs, info.Session, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	eng, err := fountain.NewMultiSourceClient(info, mirrors, 0, func(l int) { cli.SetLevel(l) })
	if err != nil {
		log.Fatal(err)
	}

	var rb fountain.RecvBatch
	defer rb.Free()
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for !eng.Done() {
		if time.Now().After(deadline) {
			log.Fatal("download never completed")
		}
		if _, err := cli.RecvBatch(&rb, time.Second); err != nil {
			continue
		}
		for i, pkt := range rb.Packets() {
			// Malformed or foreign packets are skipped; the loop
			// condition re-checks Done.
			if done, _ := eng.HandlePacketFrom(rb.Source(i), pkt); done {
				break
			}
		}
	}
	got, err := eng.File()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		log.Fatal("aggregate download corrupted")
	}
	eta, _, etaD := eng.Efficiency()
	fmt.Printf("downloaded %d bytes from %d mirrors in %v\n", len(got), mirrors, time.Since(start).Round(time.Millisecond))
	for _, src := range eng.Sources() {
		st := eng.SourceStats(src)
		fmt.Printf("  mirror %d: contributed %d packets (%d distinct, %d duplicate, %.1f%% loss)\n",
			src, st.Received, st.Distinct, st.Duplicate, 100*st.Loss)
	}
	fmt.Printf("aggregate efficiency eta=%.3f (distinctness %.3f)\n", eta, etaD)
}
