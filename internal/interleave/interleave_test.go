package interleave

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/code"
)

var _ code.Codec = (*Codec)(nil)

func randSource(rng *rand.Rand, k, packetLen int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, packetLen)
		rng.Read(src[i])
	}
	return src
}

func TestRoundTripRandomOrder(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blockK := 1 + rng.Intn(8)
		blocks := 1 + rng.Intn(6)
		c, err := New(blockK, 2*blockK, blocks, 32)
		if err != nil {
			return false
		}
		src := randSource(rng, c.K(), 32)
		enc, err := code.EncodeAll(c, src)
		if err != nil {
			return false
		}
		d := c.NewDecoder()
		for _, i := range rng.Perm(c.N()) {
			if done, err := d.Add(i, enc[i]); err != nil {
				return false
			} else if done {
				break
			}
		}
		if !d.Done() {
			return false
		}
		got, err := d.Source()
		if err != nil {
			return false
		}
		for i, p := range src {
			if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSystematicMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := New(4, 8, 3, 32)
	if err != nil {
		t.Fatal(err)
	}
	src := randSource(rng, 12, 32)
	enc, err := code.EncodeAll(c, src)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 12; f++ {
		if !bytes.Equal(enc[c.SourceIndex(f)], src[f]) {
			t.Fatalf("source packet %d not at SourceIndex %d", f, c.SourceIndex(f))
		}
	}
}

func TestCarouselOrderInterleavesBlocks(t *testing.T) {
	c, err := New(5, 10, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive carousel indices must rotate through blocks 0,1,2,3.
	for i := 0; i < c.N(); i++ {
		b, _ := c.position(i)
		if b != i%4 {
			t.Fatalf("index %d in block %d, want %d", i, b, i%4)
		}
	}
	// A full round of B packets covers each block exactly once.
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		b, _ := c.position(i)
		seen[b]++
	}
	for b := 0; b < 4; b++ {
		if seen[b] != 1 {
			t.Fatalf("block %d seen %d times in one round", b, seen[b])
		}
	}
}

// TestBlockFillRequirement verifies the coupon-collector behaviour: the
// decoder is done exactly when every block has blockK distinct packets.
func TestBlockFillRequirement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := New(3, 6, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	src := randSource(rng, c.K(), 32)
	enc, _ := code.EncodeAll(c, src)
	d := c.NewDecoder()
	// Fill block 0 entirely: packets at indices 0, 2, 4 (inner 0..2, block 0).
	for inner := 0; inner < 3; inner++ {
		done, err := d.Add(inner*2, enc[inner*2])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("done with only block 0 filled")
		}
	}
	// Two packets of block 1: still not done.
	d.Add(1, enc[1])
	if done, _ := d.Add(3, enc[3]); done {
		t.Fatal("done with block 1 underfilled")
	}
	// Third distinct packet of block 1 completes.
	if done, _ := d.Add(5, enc[5]); !done {
		t.Fatal("not done though every block is filled")
	}
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestDuplicatesDoNotFillBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := New(2, 4, 1, 32)
	src := randSource(rng, 2, 32)
	enc, _ := code.EncodeAll(c, src)
	d := c.NewDecoder()
	d.Add(0, enc[0])
	d.Add(0, enc[0])
	if d.Received() != 1 {
		t.Fatalf("Received = %d, want 1", d.Received())
	}
	if d.Done() {
		t.Fatal("done from duplicates")
	}
}

func TestNewForFile(t *testing.T) {
	c, err := NewForFile(1000, 50, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.Blocks() != 20 || c.BlockK() != 50 || c.K() != 1000 || c.N() != 2000 {
		t.Fatalf("unexpected sizing: B=%d k=%d K=%d N=%d", c.Blocks(), c.BlockK(), c.K(), c.N())
	}
	// Block larger than the file collapses to one block.
	c2, err := NewForFile(10, 50, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Blocks() != 1 || c2.BlockK() != 10 {
		t.Fatalf("collapse failed: B=%d k=%d", c2.Blocks(), c2.BlockK())
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(4, 8, 0, 32); err == nil {
		t.Fatal("0 blocks accepted")
	}
	if _, err := New(0, 8, 2, 32); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(4, 8, 2, 24); err == nil {
		t.Fatal("packetLen not multiple of 16 accepted")
	}
	if _, err := NewForFile(0, 50, 2, 32); err == nil {
		t.Fatal("totalK=0 accepted")
	}
}

func TestAddErrors(t *testing.T) {
	c, _ := New(2, 4, 2, 32)
	d := c.NewDecoder()
	if _, err := d.Add(8, make([]byte, 32)); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := d.Add(0, make([]byte, 16)); err == nil {
		t.Fatal("short packet accepted")
	}
	if _, err := d.Source(); err == nil {
		t.Fatal("Source before done")
	}
}

// TestEncodeRangeMatchesEncode: carousel-order windows of the interleaved
// encoding (code.EncodeRows) must match the full encoding, with source
// entries aliased.
func TestEncodeRangeMatchesEncode(t *testing.T) {
	c, err := NewForFile(40, 10, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	src := make([][]byte, c.K())
	for i := range src {
		src[i] = make([]byte, 64)
		rng.Read(src[i])
	}
	full, err := code.EncodeAll(c, src)
	if err != nil {
		t.Fatal(err)
	}
	n := c.N()
	for _, win := range [][2]int{{0, n}, {0, 7}, {n - 9, n}, {n/2 - 3, n/2 + 3}} {
		got, err := code.EncodeRows(c, src, win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			if !bytes.Equal(p, full[win[0]+i]) {
				t.Fatalf("packet %d differs from full encoding", win[0]+i)
			}
		}
	}
	si := c.SourceIndex(0)
	got, err := code.EncodeRows(c, src, si, si+1)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0][0] != &src[0][0] {
		t.Fatal("source packet copied, want alias")
	}
}

// TestBlocksShareOneBuffer: every block decodes into its block-major range
// of the one buffer Source returns, so nothing is concatenated.
func TestBlocksShareOneBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	c, _ := New(4, 8, 5, 32)
	src := randSource(rng, c.K(), 32)
	enc, _ := code.EncodeAll(c, src)
	d := c.NewDecoder()
	for _, i := range rng.Perm(c.N()) {
		if done, _ := d.Add(i, enc[i]); done {
			break
		}
	}
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Join(src, nil)) {
		t.Fatal("source differs")
	}
	for b, bd := range d.(*decoder).blocks {
		part, _ := bd.Source()
		if &part[0] != &got[b*c.BlockK()*32] || len(part) != c.BlockK()*32 {
			t.Fatalf("block %d decoded outside its range of the buffer", b)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { d.Source() }); allocs != 0 {
		t.Fatalf("a second Source allocates %.0f times", allocs)
	}
}

// TestReceivedCountsDistinct: Received is the number of distinct packets
// accepted before Done, those reaching a block that is already filled
// included, and a repeated index is not counted again.
func TestReceivedCountsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c, _ := New(5, 10, 4, 32)
	src := randSource(rng, c.K(), 32)
	enc, _ := code.EncodeAll(c, src)
	d := c.NewDecoder()
	fed := 0
	for _, i := range rng.Perm(c.N()) {
		done, err := d.Add(i, enc[i])
		if err != nil {
			t.Fatal(err)
		}
		fed++
		if d.Received() != fed {
			t.Fatalf("after %d distinct packets Received = %d", fed, d.Received())
		}
		if fed%3 == 0 && !done {
			d.Add(i, enc[i])
			if d.Received() != fed {
				t.Fatalf("a repeated index moved Received to %d, want %d", d.Received(), fed)
			}
		}
		if done {
			break
		}
	}
	if fed <= c.K() {
		t.Fatalf("a random order filled every block with %d packets: no packet reached a filled block", fed)
	}
}

// TestBackgroundSolves: each block is solved on a solver goroutine as it
// fills, while packets keep arriving, duplicates and late packets of
// filled blocks among them. Source is the file byte for byte, ErrNotReady
// until every block is filled, and a decoder dropped mid-download leaves
// no goroutine behind once its solves end. Run it under -race with -count.
func TestBackgroundSolves(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(45))
	for _, shape := range []struct{ blockK, blocks, packetLen int }{{8, 6, 32}, {25, 3, 64}} {
		c, err := New(shape.blockK, 2*shape.blockK, shape.blocks, shape.packetLen)
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(rng, c.K(), shape.packetLen)
		enc, _ := code.EncodeAll(c, src)
		for _, repairsFirst := range []bool{false, true} {
			// Every packet once and a quarter of them again, in random
			// order: blocks fill at random points and keep receiving
			// afterwards. Or block 0's repairs come first, so its solve
			// is the first and, having no source packet, the one that
			// would allocate the shared buffer while the other blocks'
			// source packets are being written into it.
			order := rng.Perm(c.N())
			order = append(order, order[:c.N()/4]...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			if repairsFirst {
				var first []int
				for inner := shape.blockK; inner < 2*shape.blockK; inner++ {
					first = append(first, inner*shape.blocks)
				}
				order = append(first, order...)
			}
			d := c.NewDecoder()
			abandoned := c.NewDecoder()
			for _, i := range order {
				if !d.Done() {
					if _, err := d.Source(); !errors.Is(err, code.ErrNotReady) {
						t.Fatalf("Source before done: %v, want ErrNotReady", err)
					}
				}
				if _, err := d.Add(i, enc[i]); err != nil {
					t.Fatal(err)
				}
				if abandoned.Received() < c.K() {
					abandoned.Add(i, enc[i])
				}
			}
			got, err := d.Source()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Join(src, nil)) {
				t.Fatalf("k=%d B=%d repairs first %v: source differs", shape.blockK, shape.blocks, repairsFirst)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the decoders", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolversBounded: however many blocks fill at once, a decoder runs at
// most GOMAXPROCS solver goroutines, each with at most GOMAXPROCS-1
// ParallelChunks workers, not one goroutine per block. Repair packets
// alone, so every block has a real solve.
func TestSolversBounded(t *testing.T) {
	c, _ := New(2, 4, 1000, 16)
	src := randSource(rand.New(rand.NewSource(46)), c.K(), 16)
	enc, _ := code.EncodeAll(c, src)
	procs := runtime.GOMAXPROCS(0)
	base := runtime.NumGoroutine()
	d := c.NewDecoder()
	peak := 0
	for i := c.K(); i < c.N(); i++ {
		d.Add(i, enc[i])
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Join(src, nil)) {
		t.Fatal("source differs")
	}
	// Twice the bound: a solver of an earlier test may still be exiting.
	if peak > 2*procs*procs {
		t.Fatalf("%d goroutines beside the test's %d while %d blocks filled", peak, base, c.Blocks())
	}
}
