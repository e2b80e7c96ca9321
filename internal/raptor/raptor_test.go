package raptor

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/code"
	"repro/internal/lt"
	"repro/internal/peel"
	"repro/internal/tornado"
)

func testSrc(t testing.TB, k, packetLen int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, packetLen)
		rng.Read(src[i])
	}
	return src
}

func mustNew(t testing.TB, k, packetLen int, seed int64) *Codec {
	t.Helper()
	c, err := New(k, packetLen, seed, 0, 0, 0, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func checkSource(t *testing.T, dec code.Decoder, src [][]byte) {
	t.Helper()
	got, err := dec.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("source packet %d mismatch", i)
		}
	}
}

// The systematic zero-loss path: the k source packets straight off the
// wire reconstruct bit-identically with zero XOR work and zero releases.
func TestSystematicZeroLossZeroXOR(t *testing.T) {
	const k, pl = 1000, 64
	c := mustNew(t, k, pl, 42)
	src := testSrc(t, k, pl, 1)
	enc, err := c.EncodeRange(src, 0, k)
	if err != nil {
		t.Fatalf("EncodeRange: %v", err)
	}
	for i := range enc {
		if &enc[i][0] != &src[i][0] {
			t.Fatalf("systematic packet %d does not alias src", i)
		}
	}
	dec := c.NewDecoder().(*peel.Decoder)
	for i := 0; i < k; i++ {
		done, err := dec.Add(i, enc[i])
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if done != (i == k-1) {
			t.Fatalf("done=%v at packet %d", done, i)
		}
	}
	if dec.Released() != 0 {
		t.Fatalf("Released() = %d, want 0", dec.Released())
	}
	if dec.XORs() != 0 {
		t.Fatalf("XORs() = %d, want 0", dec.XORs())
	}
	if dec.Received() != k {
		t.Fatalf("Received() = %d, want %d", dec.Received(), k)
	}
	checkSource(t, dec, src)
}

// TestLosslessRaptorReceiverBuildsNoGraph: a fresh codec's receiver of the
// k systematic packets allocates the file, one bit per packet and little
// else, the bound TestLosslessSystematicAllocatesTheFile sets on a prebuilt
// code. The precode graph (≈ 0.55 MB here) is built at a decoder's first
// repair packet, so this receiver never builds it.
func TestLosslessRaptorReceiverBuildsNoGraph(t *testing.T) {
	const k, pl = 16384, 64
	src := testSrc(t, k, pl, 4)
	// MemStats count the whole process: another goroutine (a finished
	// test's runner, the runtime) may allocate inside the window. A receiver
	// that built the graph would allocate it on every fresh codec, so the
	// receiver's own bytes are the fewest of three receives, the first of
	// which also warms the decode path.
	got := uint64(math.MaxUint64)
	for range 3 {
		c := mustNew(t, k, pl, 1)
		// A collection first: the process's first one starts the runtime's
		// mark workers, whose allocations are not the receiver's.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := c.NewDecoder()
		for i, p := range src {
			if done, err := dec.Add(i, p); err != nil || done != (i == k-1) {
				t.Fatalf("packet %d: done=%v err=%v", i, done, err)
			}
		}
		runtime.ReadMemStats(&after)
		checkSource(t, dec, src)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(k*pl + k/8 + 1024); got > limit {
		t.Fatalf("lossless receiver on a fresh codec allocated %d B, want ≤ %d (file %d + bits %d + 1 KiB)", got, limit, k*pl, k/8)
	}
}

// TestConcurrentFirstUse: one fresh codec serves eight decoders, each
// starting on a repair packet, while an encoder computes the intermediates
// and emits repair packets, so all nine ask for the precode graph at once. Every decode and every
// encoded packet is byte-exact; under -race this is also the check that
// the graph's first use is synchronised.
func TestConcurrentFirstUse(t *testing.T) {
	const k, pl, decoders = 500, 16, 8
	src := testSrc(t, k, pl, 5)
	// The packets come from a second codec of the same session, so the
	// codec under test is first used by the goroutines below.
	want, err := mustNew(t, k, pl, 9).EncodeRange(src, k, 3*k)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, k, pl, 9)
	file := bytes.Join(src, nil)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(decoders + 1)
	for g := range decoders {
		go func() {
			defer wg.Done()
			<-start
			dec := c.NewDecoder()
			for i := g * k / decoders; i < len(want) && !dec.Done(); i++ {
				if _, err := dec.Add(k+i, want[i]); err != nil {
					t.Errorf("decoder %d: Add(%d): %v", g, k+i, err)
					return
				}
			}
			got, err := dec.Source()
			if err != nil {
				t.Errorf("decoder %d: %v", g, err)
				return
			}
			if !bytes.Equal(got, file) {
				t.Errorf("decoder %d: source differs from what was sent", g)
			}
		}()
	}
	go func() {
		defer wg.Done()
		<-start
		dst := make([]byte, pl)
		cols := c.Columns(src)
		for i, p := range want {
			clear(dst)
			if c.EncodeInto(dst, cols, k+i); !bytes.Equal(dst, p) {
				t.Errorf("repair packet %d differs from the reference codec's", k+i)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
}

// TestEncodeRangeNewSourceInReusedBuffer: a second file read into the
// buffer that held the first, and split again, is a new source slice, so
// EncodeRange does not serve it the first file's intermediates.
func TestEncodeRangeNewSourceInReusedBuffer(t *testing.T) {
	const k, pl = 200, 16
	buf := make([]byte, k*pl)
	rng := rand.New(rand.NewSource(8))
	c := mustNew(t, k, pl, 3)
	for file := range 2 {
		rng.Read(buf)
		src, err := code.Split(buf, k, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodeRange(src, k, k+50)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustNew(t, k, pl, 3).EncodeRange(src, k, k+50)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("file %d: repair packet %d differs from a fresh codec's", file, k+i)
			}
		}
	}
}

// Repair-only reception (an uncoordinated mirror's receiver that joined
// late sees no systematic packets) must still decode near k.
func TestRepairOnlyRoundTrip(t *testing.T) {
	const k, pl = 500, 48
	c := mustNew(t, k, pl, 7)
	src := testSrc(t, k, pl, 2)
	dec := c.NewDecoder()
	budget := k + k/4
	got := 0
	for i := k; i < k+budget; i++ {
		pkts, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatalf("EncodeRange(%d): %v", i, err)
		}
		got++
		done, err := dec.Add(i, pkts[0])
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if done {
			break
		}
	}
	if !dec.Done() {
		t.Fatalf("not done after %d repair packets (k=%d)", got, k)
	}
	checkSource(t, dec, src)
	t.Logf("repair-only: done after %d packets, overhead %.4f", got, float64(got)/float64(k))
}

// Mixed reception: a lossy receiver sees most systematic packets plus the
// repair stream.
func TestMixedLossRoundTrip(t *testing.T) {
	const k, pl = 1000, 32
	c := mustNew(t, k, pl, 11)
	src := testSrc(t, k, pl, 3)
	rng := rand.New(rand.NewSource(99))
	dec := c.NewDecoder()
	received := 0
	for i := 0; i < k && !dec.Done(); i++ {
		if rng.Float64() < 0.2 {
			continue // lost
		}
		pkts, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatalf("EncodeRange(%d): %v", i, err)
		}
		received++
		if _, err := dec.Add(i, pkts[0]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	for i := k; i < 2*k && !dec.Done(); i++ {
		if rng.Float64() < 0.2 {
			continue
		}
		pkts, err := c.EncodeRange(src, i, i+1)
		if err != nil {
			t.Fatalf("EncodeRange(%d): %v", i, err)
		}
		received++
		if _, err := dec.Add(i, pkts[0]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if !dec.Done() {
		t.Fatalf("not done after %d packets (k=%d)", received, k)
	}
	checkSource(t, dec, src)
	t.Logf("mixed 20%% loss: done after %d received, overhead %.4f", received, float64(received)/float64(k))
}

// Reception overhead averaged over repair-only trials must stay within
// the Raptor design target.
func TestOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement")
	}
	const pl, trials = 16, 5
	for _, tc := range []struct {
		k     int
		bound float64
	}{
		{1000, 1.04}, // tuned scale; the bench gate holds the seeded runs to 1.03
		{2000, 1.06}, // off-grid scale: defaults interpolate, bound is looser
	} {
		c := mustNew(t, tc.k, pl, 1234)
		src := testSrc(t, tc.k, pl, 4)
		total := 0
		for trial := 0; trial < trials; trial++ {
			dec := c.NewDecoder()
			start := tc.k + trial*50_000 // disjoint repair windows per trial
			n := 0
			for i := start; !dec.Done(); i++ {
				pkts, err := c.EncodeRange(src, i, i+1)
				if err != nil {
					t.Fatalf("EncodeRange(%d): %v", i, err)
				}
				n++
				if _, err := dec.Add(i, pkts[0]); err != nil {
					t.Fatalf("Add(%d): %v", i, err)
				}
				if n > tc.k+tc.k/2 {
					t.Fatalf("k=%d trial %d: no decode after %d packets", tc.k, trial, n)
				}
			}
			checkSource(t, dec, src)
			total += n
		}
		overhead := float64(total) / float64(trials*tc.k)
		t.Logf("k=%d avg overhead over %d trials: %.4f", tc.k, trials, overhead)
		if overhead > tc.bound {
			t.Fatalf("k=%d overhead %.4f exceeds %.4f", tc.k, overhead, tc.bound)
		}
	}
}

// Neighbor derivation is deterministic, in-range, and duplicate-free —
// the invariants FuzzRaptorNeighbors hammers.
func TestNeighborsDeterministicAndValid(t *testing.T) {
	c := mustNew(t, 300, 8, 77)
	c2 := mustNew(t, 300, 8, 77)
	var a, b []int
	for idx := uint32(0); idx < 2000; idx++ {
		a = c.NeighborsInto(idx, a)
		b = c2.NeighborsInto(idx, b)
		if len(a) != len(b) {
			t.Fatalf("index %d: len %d vs %d", idx, len(a), len(b))
		}
		seen := map[int]bool{}
		for i, nb := range a {
			if nb != b[i] {
				t.Fatalf("index %d: nondeterministic neighbor %d", idx, i)
			}
			if nb < 0 || nb >= c.Intermediates() {
				t.Fatalf("index %d: neighbor %d out of range [0,%d)", idx, nb, c.Intermediates())
			}
			if seen[nb] {
				t.Fatalf("index %d: duplicate neighbor %d", idx, nb)
			}
			seen[nb] = true
		}
		if idx < 300 && (len(a) != 1 || a[0] != int(idx)) {
			t.Fatalf("systematic index %d: neighbors %v", idx, a)
		}
		if d := c.Degree(idx); d != len(a) {
			t.Fatalf("index %d: Degree %d != len(neighbors) %d", idx, d, len(a))
		}
	}
}

// The precode graph invariants: every check lists in-range, duplicate-free
// sources.
func TestPrecodeConsistency(t *testing.T) {
	for _, k := range []int{1, 2, 10, 1000} {
		c := mustNew(t, k, 8, int64(k))
		if c.Checks() < 2 {
			t.Fatalf("k=%d: checks %d < 2", k, c.Checks())
		}
		for j, srcs := range c.Code.CheckSrc() {
			seen := map[int32]bool{}
			for _, s := range srcs {
				if s < 0 || int(s) >= k {
					t.Fatalf("k=%d check %d: source %d out of range", k, j, s)
				}
				if seen[s] {
					t.Fatalf("k=%d check %d: duplicate source %d", k, j, s)
				}
				seen[s] = true
			}
		}
	}
}

// Duplicates and post-completion packets are ignored without error.
func TestDuplicatesIgnored(t *testing.T) {
	const k, pl = 100, 16
	c := mustNew(t, k, pl, 5)
	src := testSrc(t, k, pl, 6)
	dec := c.NewDecoder()
	enc, err := c.EncodeRange(src, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := dec.Add(i, enc[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(i, enc[i]); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Received() != k {
		t.Fatalf("Received() = %d, want %d", dec.Received(), k)
	}
	done, err := dec.Add(k+5, make([]byte, pl))
	if err != nil || !done {
		t.Fatalf("post-completion Add: done=%v err=%v", done, err)
	}
	checkSource(t, dec, src)
}

// Invalid arguments are rejected.
func TestBadInputs(t *testing.T) {
	if _, err := New(0, 16, 1, 0, 0, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(10, 0, 1, 0, 0, 0, 0); err == nil {
		t.Fatal("packetLen=0 accepted")
	}
	c := mustNew(t, 10, 16, 1)
	if _, err := c.Encode(nil); err == nil {
		t.Fatal("Encode should fail on a rateless codec")
	}
	dec := c.NewDecoder()
	if _, err := dec.Add(-1, make([]byte, 16)); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := dec.Add(0, make([]byte, 3)); err == nil {
		t.Fatal("short packet accepted")
	}
	if _, err := dec.Source(); err == nil {
		t.Fatal("Source before done")
	}
}

// TestEncodeIntoAllocatesNothing: a warm per-emission encode through the
// one peel encoder — LT and raptor at k = 2500 with default parameters,
// then Tornado A's dense tail — keeps the neighbour set, the draw's
// duplicate set and the gathered columns on the stack, and reads a Tornado
// row in place. Past degree 256 (LT's soliton tail, never raptor's
// truncated inner code) the neighbour scratch is outgrown, so those
// indices are skipped.
func TestEncodeIntoAllocatesNothing(t *testing.T) {
	const k, pl = 2500, 1024
	src := testSrc(t, k, pl, 3)
	lc, err := lt.New(k, pl, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc := mustNew(t, k, pl, 1)
	dst := make([]byte, pl)
	for _, c := range []interface {
		code.RowEncoder
		Degree(uint32) int
	}{lc, rc} {
		cols := c.Columns(src) // raptor's intermediates
		c.EncodeInto(dst, cols, k)
		idx, spikes := k, 0
		allocs := testing.AllocsPerRun(1, func() {
			for range 2000 {
				for idx++; c.Degree(uint32(idx)) > 256; idx++ {
				}
				if c.Degree(uint32(idx)) > 32 {
					spikes++
				}
				c.EncodeInto(dst, cols, idx)
			}
		})
		if allocs != 0 || spikes == 0 {
			t.Fatalf("%T: %v allocs in 2000 warm encodes (%d past the linear duplicate scan)", c, allocs, spikes)
		}
	}
	tc, err := tornado.New(tornado.A(), k, 2*k, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Levels()) == 0 {
		t.Fatal("no cascade at this k")
	}
	cols := tc.Columns(src) // the cascade
	tc.EncodeInto(dst, cols, tc.Verbatim)
	allocs := testing.AllocsPerRun(1, func() {
		for idx := tc.Verbatim; idx < tc.N(); idx++ {
			tc.EncodeInto(dst, cols, idx)
		}
	})
	if _, rows := tc.DenseSize(); allocs != 0 || rows != tc.N()-tc.Verbatim {
		t.Fatalf("tornado: %v allocs in %d warm dense-tail encodes", allocs, rows)
	}
}
