package lt

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/code"
)

func randomSrc(t testing.TB, rng *rand.Rand, k, pl int) [][]byte {
	t.Helper()
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
		rng.Read(src[i])
	}
	return src
}

// decodeStream feeds consecutive indices from base, dropping each packet
// with probability loss, until the decoder completes. It returns the number
// of distinct packets the decoder accepted.
func decodeStream(t *testing.T, c *Codec, src [][]byte, base uint32, loss float64, rng *rand.Rand) int {
	t.Helper()
	d := c.NewDecoder()
	budget := 8*c.K() + 1024
	for i := 0; i < budget; i++ {
		if rng.Float64() < loss {
			continue
		}
		idx := base + uint32(i)
		pkts, err := c.EncodeRange(src, int(idx), int(idx)+1)
		if err != nil {
			t.Fatalf("EncodeRange(%d): %v", idx, err)
		}
		done, err := d.Add(int(idx), pkts[0])
		if err != nil {
			t.Fatalf("Add(%d): %v", idx, err)
		}
		if done {
			got, err := d.Source()
			if err != nil {
				t.Fatalf("Source: %v", err)
			}
			for s, p := range src {
				if !bytes.Equal(got[s*len(p):(s+1)*len(p)], p) {
					t.Fatalf("symbol %d mismatch", s)
				}
			}
			return d.Received()
		}
	}
	t.Fatalf("decoder not done after %d offered packets (received %d, k=%d)", budget, d.Received(), c.K())
	return 0
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 16, 100, 500} {
		c, err := New(k, 64, 42, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := randomSrc(t, rng, k, 64)
		recv := decodeStream(t, c, src, 0, 0, rng)
		t.Logf("k=%4d received=%d overhead=%.3f", k, recv, float64(recv)/float64(k))
	}
}

func TestRoundTripWithLossAndOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := New(200, 32, -987654321, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	src := randomSrc(t, rng, 200, 32)
	// Stream from a large index base (as a long-running mirror would) with
	// 20% loss: completion must not depend on low indices or density.
	recv := decodeStream(t, c, src, 3<<29, 0.20, rng)
	t.Logf("received=%d overhead=%.3f", recv, float64(recv)/200)
}

// TestReceptionOverhead is the codec-level half of the ISSUE acceptance
// bar: average reception overhead at k=10000 under 10-20% loss must stay
// within 1.15·k. (The end-to-end check over the mirrored harness lives in
// internal/harness.)
func TestReceptionOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("k=10000 decode trials")
	}
	const k, pl, trials = 10000, 16, 3
	c, err := New(k, pl, 1998, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	src := randomSrc(t, rng, k, pl)
	total := 0
	for trial := 0; trial < trials; trial++ {
		loss := 0.10 + 0.05*float64(trial)
		recv := decodeStream(t, c, src, uint32(trial)<<24, loss, rng)
		total += recv
		t.Logf("trial %d (loss %.2f): received=%d overhead=%.4f", trial, loss, recv, float64(recv)/k)
	}
	avg := float64(total) / float64(trials) / float64(k)
	t.Logf("average overhead %.4f", avg)
	if avg > 1.15 {
		t.Fatalf("average reception overhead %.4f exceeds 1.15", avg)
	}
}

func TestNeighborsDeterministicInRangeDupFree(t *testing.T) {
	for _, k := range []int{1, 2, 7, 1000} {
		c, err := New(k, 8, 99, 0.2, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var a, b []int
		for idx := uint32(0); idx < 500; idx++ {
			a = c.NeighborsInto(idx, a)
			b = c.NeighborsInto(idx, b)
			if len(a) != len(b) {
				t.Fatalf("k=%d idx=%d: nondeterministic length %d vs %d", k, idx, len(a), len(b))
			}
			seen := make(map[int]bool, len(a))
			for i, nb := range a {
				if nb != b[i] {
					t.Fatalf("k=%d idx=%d: nondeterministic entry %d", k, idx, i)
				}
				if nb < 0 || nb >= k {
					t.Fatalf("k=%d idx=%d: neighbor %d out of range", k, idx, nb)
				}
				if seen[nb] {
					t.Fatalf("k=%d idx=%d: duplicate neighbor %d", k, idx, nb)
				}
				seen[nb] = true
			}
			if d := c.Degree(idx); d != len(a) {
				t.Fatalf("k=%d idx=%d: Degree=%d but %d neighbors", k, idx, d, len(a))
			}
		}
	}
}

func TestDegreeDistributionShape(t *testing.T) {
	const k = 2000
	c, err := New(k, 8, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 20000
	sum, ones := 0, 0
	for idx := uint32(0); idx < samples; idx++ {
		d := c.Degree(idx)
		if d < 1 || d > k {
			t.Fatalf("degree %d out of [1,%d]", d, k)
		}
		sum += d
		if d == 1 {
			ones++
		}
	}
	avg := float64(sum) / samples
	// Robust soliton average degree is Θ(ln(k/δ)): sanity-bound it.
	if avg < 2 || avg > 40 {
		t.Fatalf("average degree %.2f implausible for robust soliton at k=%d", avg, k)
	}
	if ones == 0 {
		t.Fatal("no degree-1 packets in sample; ripple can never start")
	}
	t.Logf("avg degree %.2f, degree-1 fraction %.4f", avg, float64(ones)/samples)
}

func TestEncodeRangeBatchingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c, err := New(50, 48, 77, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := randomSrc(t, rng, 50, 48)
	lo, hi := 1234, 1234+96
	batch, err := c.EncodeRange(src, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		one, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch[i-lo], one[0]) {
			t.Fatalf("packet %d differs between batch and single generation", i)
		}
	}
}

func TestEncodeIsUnavailable(t *testing.T) {
	c, err := New(10, 16, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode(make([][]byte, 10)); err == nil {
		t.Fatal("Encode should fail for a rateless codec")
	}
	if c.N() != code.UnboundedN {
		t.Fatalf("N() = %d, want UnboundedN", c.N())
	}
	if !code.IsRateless(c) {
		t.Fatal("codec should report rateless capability")
	}
}

func TestDecoderIgnoresDuplicatesAndPostCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c, err := New(40, 24, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := randomSrc(t, rng, 40, 24)
	d := c.NewDecoder()
	var donePkt []byte
	for i := 0; ; i++ {
		pkts, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			donePkt = append([]byte(nil), pkts[0]...)
			// Duplicate adds must not change Received.
			if _, err := d.Add(0, pkts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Add(0, pkts[0]); err != nil {
				t.Fatal(err)
			}
			if got := d.Received(); got != 1 {
				t.Fatalf("Received=%d after duplicate, want 1", got)
			}
			continue
		}
		done, err := d.Add(i, pkts[0])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if done, err := d.Add(0, donePkt); err != nil || !done {
		t.Fatalf("post-completion Add: done=%v err=%v", done, err)
	}
	if _, err := d.Source(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 16, 1, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(4, 0, 1, 0, 0); err == nil {
		t.Fatal("packetLen=0 accepted")
	}
	c, err := New(4, 16, 1, -1, 7) // out-of-range params fall back to defaults
	if err != nil {
		t.Fatal(err)
	}
	cc, delta := c.Params()
	if cc != DefaultC || delta != DefaultDelta {
		t.Fatalf("defaults not applied: c=%v delta=%v", cc, delta)
	}
}
