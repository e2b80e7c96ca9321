// Command tracegen synthesizes MBone-style packet-loss traces (the §6.4
// substitute; see DESIGN.md) and writes them to a trace file consumable by
// the simulator, printing the population's loss statistics.
//
// Usage:
//
//	tracegen -out traces.dftr -receivers 120 -length 28800 -mean 0.18
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/losstrace"
)

func main() {
	var (
		out       = flag.String("out", "traces.dftr", "output file")
		receivers = flag.Int("receivers", 120, "number of receivers")
		length    = flag.Int("length", 28800, "packets per trace")
		mean      = flag.Float64("mean", 0.18, "target population mean loss")
		seed      = flag.Int64("seed", 1998, "generator seed")
	)
	flag.Parse()
	traces := losstrace.Generate(losstrace.GenParams{
		Receivers: *receivers, Length: *length, MeanLoss: *mean, Seed: *seed,
	})
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := losstrace.Write(f, traces); err != nil {
		log.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, t := range traces {
		r := t.LossRate()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	fmt.Printf("tracegen: wrote %d traces x %d packets to %s (mean loss %.3f, range %.3f-%.3f)\n",
		len(traces), *length, *out, losstrace.MeanLoss(traces), lo, hi)
}
