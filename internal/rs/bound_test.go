package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

// BenchmarkCauchyWorstCase times one Cauchy block's worst-case decode
// against its K: decoder creation, Add and Source with a random half of
// the sources lost and as many repairs held (encoded before the clock
// starts). Rows are at 16- and 1 024-byte packets, plus K = 1 024 at
// proto.MaxPacketLen. It is the table core's Reed-Solomon block bound
// (maxBlockK) was read from, in EXPERIMENTS.md:
//
//	go test -run xxx -bench CauchyWorstCase -benchtime 3x ./internal/rs
func BenchmarkCauchyWorstCase(b *testing.B) {
	type row struct{ k, pl int }
	var rows []row
	for _, pl := range []int{16, 1024} {
		for _, k := range []int{256, 512, 1024, 2048} {
			rows = append(rows, row{k, pl})
		}
	}
	rows = append(rows, row{1024, proto.MaxPacketLen})
	for _, r := range rows {
		b.Run(fmt.Sprintf("k=%d/P=%d", r.k, r.pl), func(b *testing.B) {
			benchWorstCaseCauchy(b, r.k, r.pl)
		})
	}
}

func benchWorstCaseCauchy(b *testing.B, k, pl int) {
	rng := rand.New(rand.NewSource(int64(k)))
	src := randSource(rng, k, pl)
	lost := make([]bool, k)
	for _, j := range rng.Perm(k)[:k/2] {
		lost[j] = true
	}
	c, err := NewCauchy(k, 2*k, pl)
	if err != nil {
		b.Fatal(err)
	}
	repairs, err := code.EncodeRows(c, src, k, k+k/2)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * pl))
	b.ResetTimer()
	var got []byte
	for range b.N {
		c, err := NewCauchy(k, 2*k, pl)
		if err != nil {
			b.Fatal(err)
		}
		d := c.NewDecoder()
		for j, p := range src {
			if !lost[j] {
				d.Add(j, p)
			}
		}
		for r, p := range repairs {
			d.Add(k+r, p)
		}
		if got, err = d.Source(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(got, bytes.Join(src, nil)) {
		b.Fatalf("k=%d P=%d: decoded source differs", k, pl)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*pl), "ns/file-B")
}
