package repro

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/transport"
)

// Fig8 regenerates the prototype measurements: reception efficiency
// components (ηd distinctness, ηc coding, η total) versus packet loss, for
// the single-layer protocol and for the 4-layer layered protocol with
// congestion control. The paper ran this between Berkeley, CMU and Cornell;
// we run the same carousel and client engine over the in-process lossy
// multicast substrate (see DESIGN.md for the substitution).
func Fig8(w io.Writer, o Options) error {
	fileKB := 512
	if o.Full {
		fileKB = 2048 // the paper's ~2MB QuickTime clip
	}
	rng := rand.New(rand.NewSource(o.Seed + 19))
	data := make([]byte, fileKB*1024)
	rng.Read(data)
	lossRng := netsim.NewRNG(uint64(o.Seed + 19))

	run := func(layers int, p float64, startLevel int) (loss, eta, etaC, etaD float64, err error) {
		cfg := core.DefaultConfig()
		cfg.Layers = layers
		cfg.SPInterval = 16
		sess, err := core.NewSession(data, cfg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		bus := transport.NewBus(layers)
		var bc *transport.BusClient
		eng, err := client.New(sess.Info(), startLevel, func(level int) { bc.SetLevel(level) })
		if err != nil {
			return 0, 0, 0, 0, err
		}
		bc = bus.NewClient(startLevel, &netsim.Bernoulli{P: p, Rng: lossRng}, func(_ int, pkt []byte) {
			eng.HandlePacket(pkt)
		})
		defer bc.Close()
		svc := service.New(bus, service.Config{})
		defer svc.Close()
		car, err := svc.AddManual(sess, 0, 0)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		maxSteps := 400 * sess.Codec().N()
		for steps := 0; !eng.Done(); steps++ {
			if err := svc.EmitRound(car); err != nil {
				return 0, 0, 0, 0, err
			}
			if steps > maxSteps {
				return 0, 0, 0, 0, fmt.Errorf("fig8: download did not complete at p=%.2f", p)
			}
		}
		if _, err := eng.File(); err != nil {
			return 0, 0, 0, 0, err
		}
		eta, etaC, etaD = eng.Efficiency()
		return eng.MeasuredLoss(), eta, etaC, etaD, nil
	}

	fprintf(w, "Figure 8 (single layer): file=%dKB\n", fileKB)
	fprintf(w, "  %-10s %-10s %-10s %-10s %-10s\n", "inj.loss", "meas.loss", "eta_d", "eta_c", "eta")
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		loss, eta, etaC, etaD, err := run(1, p, 0)
		if err != nil {
			return err
		}
		fprintf(w, "  %-10.2f %-10.3f %-10.3f %-10.3f %-10.3f\n", p, loss, etaD, etaC, eta)
	}

	fprintf(w, "Figure 8 (4 layers, congestion-controlled): file=%dKB\n", fileKB)
	fprintf(w, "  %-10s %-10s %-10s %-10s %-10s\n", "inj.loss", "meas.loss", "eta_d", "eta_c", "eta")
	for _, p := range []float64{0, 0.05, 0.13, 0.2, 0.3, 0.4, 0.5} {
		loss, eta, etaC, etaD, err := run(4, p, 2)
		if err != nil {
			return err
		}
		fprintf(w, "  %-10.2f %-10.3f %-10.3f %-10.3f %-10.3f\n", p, loss, etaD, etaC, eta)
	}
	return nil
}
