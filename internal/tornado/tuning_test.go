package tornado

import (
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// TestTuningReport prints, per variant and k, the reception overhead
// (distinct packets / k: mean and max) and the decode time (p50, p90) over
// 30 receivers of 1 KiB packets in random carousel order at 10 % Bernoulli
// loss — the frontier EXPERIMENTS.md records, beside the paper's Figure 2
// (ε = overhead − 1: A mean .0548 max .085; B mean .0306 max .055).
// Run with: TORNADO_TUNING=1 go test ./internal/tornado -run TestTuningReport -v
func TestTuningReport(t *testing.T) {
	if testing.Short() || os.Getenv("TORNADO_TUNING") != "1" {
		t.Skip("tuning report disabled (set TORNADO_TUNING=1)")
	}
	const packetLen, receivers, loss = 1024, 30, 0.1
	for _, p := range []Params{A(), B()} {
		for _, k := range []int{2500, 10000} {
			c, err := New(p, k, 2*k, packetLen, 7)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := c.Encode(randSource(rand.New(rand.NewSource(1)), k, packetLen))
			if err != nil {
				t.Fatal(err)
			}
			var over, ms []float64
			for seed := int64(0); seed < receivers; seed++ {
				rng := rand.New(rand.NewSource(seed))
				d := c.NewDecoder()
				var spent time.Duration
				for !d.Done() {
					for _, i := range rng.Perm(c.N()) {
						if rng.Float64() < loss {
							continue
						}
						start := time.Now()
						done, _ := d.Add(i, enc[i])
						spent += time.Since(start)
						if done {
							break
						}
					}
				}
				over = append(over, float64(d.Received())/float64(k))
				ms = append(ms, spent.Seconds()*1e3)
			}
			sort.Float64s(over)
			sort.Float64s(ms)
			mean := 0.0
			for _, o := range over {
				mean += o / receivers
			}
			p50, p90 := ms[receivers/2], ms[receivers*9/10]
			t.Logf("%s k=%-5d levels=%v: overhead mean %.4f max %.4f; decode ms p50 %.1f p90 %.1f (p90/p50 %.2f)",
				p.Variant, k, c.Levels(), mean, over[receivers-1], p50, p90, p90/p50)
		}
	}
}
