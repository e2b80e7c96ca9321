package lt

import (
	"math/rand"
	"testing"
)

func BenchmarkDecodeAllocK1000(b *testing.B) {
	const k, pl = 1000, 1024
	c, err := New(k, pl, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
		rng.Read(src[i])
	}
	budget := k + k/4 + 256
	base := 1 << 28
	b.SetBytes(int64(k * pl))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool, err := c.EncodeRange(src, base, base+budget)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d := c.NewDecoder()
		done := false
		for j := 0; j < len(pool) && !done; j++ {
			if done, err = d.Add(base+j, pool[j]); err != nil {
				b.Fatal(err)
			}
		}
		if !done {
			b.Fatal("budget exhausted")
		}
		base += budget
	}
}
