package tornado

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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

// decodeRandomOrder feeds the encoding in a random order until Done and
// returns the number of distinct packets consumed.
func decodeRandomOrder(t *testing.T, c *Codec, enc [][]byte, src [][]byte, rng *rand.Rand) int {
	t.Helper()
	d := c.NewDecoder()
	order := rng.Perm(c.N())
	used := 0
	for _, i := range order {
		done, err := d.Add(i, enc[i])
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		used++
		if done {
			break
		}
	}
	if !d.Done() {
		t.Fatalf("decoder not done after all %d packets", c.N())
	}
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("source packet %d differs", i)
		}
	}
	return used
}

func TestRoundTripVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 8, 50, 256, 1000} {
		c, err := New(A(), k, 2*k+1, 64, 42)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		src := randSource(rng, k, 64)
		enc, err := c.Encode(src)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(enc) != c.N() {
			t.Fatalf("k=%d: got %d packets, want %d", k, len(enc), c.N())
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(enc[i], src[i]) {
				t.Fatalf("k=%d: not systematic at %d", k, i)
			}
		}
		decodeRandomOrder(t, c, enc, src, rng)
	}
}

func TestRoundTripPropertyQuick(t *testing.T) {
	err := quick.Check(func(seed int64, kRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%200
		pl := 2 + 2*rng.Intn(16)
		c, err := New(A(), k, 2*k, pl, seed)
		if err != nil {
			return false
		}
		src := randSource(rng, k, pl)
		enc, err := c.Encode(src)
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
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randSource(rng, 128, 32)
	c1, _ := New(A(), 128, 256, 32, 99)
	c2, _ := New(A(), 128, 256, 32, 99)
	e1, _ := c1.Encode(src)
	e2, _ := c2.Encode(src)
	for i := range e1 {
		if !bytes.Equal(e1[i], e2[i]) {
			t.Fatalf("same seed produced different packet %d", i)
		}
	}
	c3, _ := New(A(), 128, 256, 32, 100)
	e3, _ := c3.Encode(src)
	same := 0
	for i := 128; i < 256; i++ {
		if bytes.Equal(e1[i], e3[i]) {
			same++
		}
	}
	if same == 128 {
		t.Fatal("different seeds produced identical check packets")
	}
}

func TestOverheadReasonable(t *testing.T) {
	// Smoke bound; the precise distribution is measured by the Figure 2
	// experiment. At k=1024 the average overhead should already be well
	// under 15% for both variants.
	rng := rand.New(rand.NewSource(4))
	for _, p := range []Params{A(), B()} {
		k := 1024
		c, err := New(p, k, 2*k, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(rng, k, 16)
		enc, _ := c.Encode(src)
		totalOverhead := 0.0
		trials := 20
		for trial := 0; trial < trials; trial++ {
			used := decodeRandomOrder(t, c, enc, src, rng)
			totalOverhead += float64(used)/float64(k) - 1
		}
		avg := totalOverhead / float64(trials)
		t.Logf("%s k=%d: avg overhead %.4f", p.Variant, k, avg)
		if avg > 0.15 {
			t.Errorf("%s: average overhead %.3f too high", p.Variant, avg)
		}
	}
}

func TestIncrementalDoneDetection(t *testing.T) {
	// Done must flip exactly when decodable: after Done, adding more
	// packets changes nothing; before Done, Source errors.
	rng := rand.New(rand.NewSource(5))
	k := 64
	c, _ := New(A(), k, 2*k, 16, 11)
	src := randSource(rng, k, 16)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	doneAt := -1
	for step, i := range rng.Perm(c.N()) {
		if doneAt < 0 {
			if _, err := d.Source(); err == nil {
				t.Fatal("Source succeeded before done")
			}
		}
		done, err := d.Add(i, enc[i])
		if err != nil {
			t.Fatal(err)
		}
		if done && doneAt < 0 {
			doneAt = step
		}
		if doneAt >= 0 && !done {
			t.Fatal("done went back to false")
		}
	}
	if doneAt < 0 {
		t.Fatal("never done")
	}
	recAtDone := d.Received()
	if recAtDone > c.N() {
		t.Fatal("received more than n")
	}
}

func TestDuplicatesAndJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := 32
	c, _ := New(A(), k, 2*k, 16, 12)
	src := randSource(rng, k, 16)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	// Duplicates must not advance Received.
	d.Add(0, enc[0])
	d.Add(0, enc[0])
	if d.Received() != 1 {
		t.Fatalf("Received = %d, want 1", d.Received())
	}
	// Bad index and bad length must error without corrupting state.
	if _, err := d.Add(-1, enc[0]); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := d.Add(1, enc[1][:8]); err == nil {
		t.Fatal("short packet accepted")
	}
	for _, i := range rng.Perm(c.N()) {
		if done, _ := d.Add(i, enc[i]); done {
			break
		}
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

func TestDecoderDataCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := 16
	c, _ := New(A(), k, 2*k, 16, 13)
	src := randSource(rng, k, 16)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	buf := make([]byte, 16)
	for _, i := range rng.Perm(c.N()) {
		copy(buf, enc[i])
		done, _ := d.Add(i, buf)
		for j := range buf {
			buf[j] = 0xAA
		}
		if done {
			break
		}
	}
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("decoder aliased caller buffer (packet %d)", i)
		}
	}
}

func TestCascadeStructure(t *testing.T) {
	c, err := New(A(), 16384, 32768, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels := c.Levels()
	if len(levels) == 0 {
		t.Fatal("no cascade levels for large k")
	}
	sum := 0
	prev := 16384
	for _, s := range levels {
		if s > prev/2 {
			t.Fatalf("level %d larger than half its input %d", s, prev)
		}
		sum += s
		prev = s
	}
	din, drows := c.DenseSize()
	if sum+drows != 16384 {
		t.Fatalf("checks %d + dense %d != l", sum, drows)
	}
	if din != levels[len(levels)-1] {
		t.Fatalf("dense inputs %d != last level %d", din, levels[len(levels)-1])
	}
	if target := A().denseTarget(); drows > 2*target {
		t.Fatalf("dense rows %d far exceed target %d", drows, target)
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := New(Params{Variant: "x", MaxDegree: 2, DenseTarget: 64}, 8, 16, 4, 1); err == nil {
		t.Fatal("MaxDegree 2 accepted")
	}
	if _, err := New(A(), 0, 8, 4, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(A(), 8, 8, 4, 1); err == nil {
		t.Fatal("n=k accepted")
	}
	if _, err := New(A(), 8, 16, 0, 1); err == nil {
		t.Fatal("packetLen=0 accepted")
	}
}

func TestHeavyTailCounts(t *testing.T) {
	for _, nodes := range []int{10, 100, 1000} {
		counts := heavyTailCounts(nodes, 20)
		total := 0
		for d, c := range counts {
			if d < 2 || d > 20 {
				t.Fatalf("degree %d out of range", d)
			}
			if c < 0 {
				t.Fatalf("negative count for degree %d", d)
			}
			total += c
		}
		if total != nodes {
			t.Fatalf("counts sum to %d, want %d", total, nodes)
		}
	}
	// Degree 2 should dominate: P(2) = (1/2)/(1-1/D) ≈ 0.53.
	counts := heavyTailCounts(1000, 20)
	if counts[2] < 450 || counts[2] > 600 {
		t.Fatalf("degree-2 count %d outside expected band", counts[2])
	}
}

func TestBigraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := newBigraph(1000, 500, heavyTailCounts(1000, 20), rng)
	if g.left != 1000 || g.right != 500 {
		t.Fatal("wrong dims")
	}
	// No duplicate neighbors within a check.
	for c, ns := range g.neighbors {
		seen := map[int32]bool{}
		for _, v := range ns {
			if v < 0 || v >= 1000 {
				t.Fatalf("neighbor %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("check %d has duplicate neighbor %d", c, v)
			}
			seen[v] = true
		}
	}
	// Edge count should be close to 1000 * H(20)/(1-1/20) ≈ 3786.
	e := g.edgeCount()
	if e < 3000 || e > 4500 {
		t.Fatalf("edge count %d outside expected band", e)
	}
}

func TestEncodeValidatesSource(t *testing.T) {
	c, _ := New(A(), 8, 16, 16, 1)
	if _, err := c.Encode(make([][]byte, 7)); err == nil {
		t.Fatal("wrong source count accepted")
	}
}

// appendBigraph builds the graph newBigraph draws with each check's list
// grown by append in node order: the reference the CSR build must match
// edge for edge.
func appendBigraph(left, right int, counts map[int]int, rng *rand.Rand) [][]int32 {
	cp := make(map[int]int, len(counts))
	for d, c := range counts {
		cp[d] = c
	}
	if right >= 2 && cp[2] > right-1 {
		cp[3] += cp[2] - (right - 1)
		cp[2] = right - 1
	}
	var leftDeg []int
	for _, d := range slices.Sorted(maps.Keys(cp)) {
		for i := 0; i < cp[d]; i++ {
			leftDeg = append(leftDeg, d)
		}
	}
	rng.Shuffle(left, func(i, j int) { leftDeg[i], leftDeg[j] = leftDeg[j], leftDeg[i] })
	perm := rng.Perm(right)
	next2 := 0
	neighbors := make([][]int32, right)
	for i, d := range leftDeg {
		if d == 2 && right >= 2 {
			a, b := perm[next2], perm[next2+1]
			next2++
			neighbors[a] = append(neighbors[a], int32(i))
			neighbors[b] = append(neighbors[b], int32(i))
			continue
		}
		var picked []int32
		for len(picked) < min(d, right) {
			if c := int32(rng.Intn(right)); !slices.Contains(picked, c) {
				picked = append(picked, c)
			}
		}
		for _, c := range picked {
			neighbors[c] = append(neighbors[c], int32(i))
		}
	}
	return neighbors
}

// TestBigraphMatchesAppendBuild: the CSR build draws the same graph as the
// append build, down to each check's node order, from a thousand-node
// layer to a right side smaller than the largest degree.
func TestBigraphMatchesAppendBuild(t *testing.T) {
	for _, tc := range []struct{ left, right, maxDeg int }{
		{1000, 500, 20}, {4, 2, 8}, {8, 1, 8}, {10, 3, 8}, {300, 37, 12}, {2500, 60, 8},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			counts := heavyTailCounts(tc.left, tc.maxDeg)
			got := newBigraph(tc.left, tc.right, counts, rand.New(rand.NewSource(seed))).neighbors
			want := appendBigraph(tc.left, tc.right, counts, rand.New(rand.NewSource(seed)))
			for c := range want {
				if !slices.Equal(got[c], want[c]) {
					t.Fatalf("left=%d right=%d seed=%d: check %d lists %v, want %v", tc.left, tc.right, seed, c, got[c], want[c])
				}
			}
		}
	}
}
