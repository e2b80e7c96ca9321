package peel

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
)

// testCode is a small code of any shape plus the column values its
// packets are built from, so tests can act as the sender.
type testCode struct {
	Code
	sampler Sampler   // the neighbour function of an LT or raptor shape
	checks  [][]int32 // the static rows CheckSrc returns
	cols    [][]byte  // all L column values; cols[:K] is the source
}

// setChecks makes checks the code's static rows.
func (tc *testCode) setChecks(checks [][]int32) {
	tc.checks = checks
	tc.CheckSrc = func() [][]int32 { return tc.checks }
}

// newTestCode builds an LT-shaped code (no static rows, no systematic
// prefix) or, with checks > 0, a raptor-shaped one: a random sparse
// precode in which every source feeds three checks, a systematic prefix,
// and a truncated soliton over all L columns.
func newTestCode(k, checks, packetLen int, seed int64) *testCode {
	rng := rand.New(rand.NewSource(seed))
	l := k + checks
	maxD := l
	if checks > 0 && maxD > 12 {
		maxD = 12
	}
	// Ideal soliton truncated at maxD with the tail folded into the last
	// degree, plus a degree-1 floor so small systems ignite.
	cdf := make([]float64, maxD)
	sum := 0.0
	for d := 1; d <= maxD; d++ {
		p := 0.1
		if d > 1 {
			p = 1 / (float64(d) * float64(d-1))
		}
		if d == maxD && d > 1 {
			p += 1 / float64(d)
		}
		sum += p
		cdf[d-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[maxD-1] = 1
	tc := &testCode{cols: make([][]byte, l), sampler: Sampler{Seed: seed, CDF: cdf, L: l}}
	tc.Code = Code{Sources: k, Indices: code.UnboundedN, PacketBytes: packetLen, Draw: &tc.sampler}
	tc.fillSource(rng)
	if checks > 0 {
		tc.Systematic, tc.Verbatim = k, k
		tc.setChecks(make([][]int32, checks))
		for i := 0; i < k; i++ {
			for _, j := range rng.Perm(checks)[:min(3, checks)] {
				tc.checks[j] = append(tc.checks[j], int32(i))
			}
		}
		tc.fillChecks()
	}
	return tc
}

// table is a neighbour function read from rows: packet index i's columns
// are rows[i-first].
type table struct {
	first int
	rows  [][]int
}

func (t *table) NeighborsInto(index uint32, buf []int) []int {
	return append(buf[:0], t.rows[int(index)-t.first]...)
}

func (t *table) MeanDegree() float64 {
	edges := 0
	for _, r := range t.rows {
		edges += len(r)
	}
	return float64(edges) / float64(len(t.rows))
}

// newTableCode builds a Tornado-shaped code: a systematic prefix, two
// cascade levels as static rows — level 1 over the sources, level 2 over
// level 1, so a static row names check columns — and a bounded index space
// read from a table: past k, each check value as a one-neighbour row, then
// dense rows over level 2.
func newTableCode(k, packetLen int, seed int64) *testCode {
	rng := rand.New(rand.NewSource(seed))
	c1 := k/2 + 1
	c2 := c1/2 + 1
	l := k + c1 + c2
	tb := &table{first: k}
	for v := k; v < l; v++ {
		tb.rows = append(tb.rows, []int{v})
	}
	for range c2 + 2 {
		row := rng.Perm(c2)[:min(4, c2)]
		for i := range row {
			row[i] += k + c1
		}
		tb.rows = append(tb.rows, row)
	}
	tc := &testCode{cols: make([][]byte, l)}
	tc.Code = Code{Sources: k, Indices: k + len(tb.rows), PacketBytes: packetLen, Systematic: k, Verbatim: l, Draw: tb}
	tc.setChecks(make([][]int32, c1+c2))
	for j := range tc.checks {
		first, n := 0, k
		if j >= c1 {
			first, n = k, c1
		}
		for _, v := range rng.Perm(n)[:min(3, n)] {
			tc.checks[j] = append(tc.checks[j], int32(first+v))
		}
	}
	tc.fillSource(rng)
	tc.fillChecks()
	return tc
}

// fillSource draws the K source columns.
func (tc *testCode) fillSource(rng *rand.Rand) {
	for i := 0; i < tc.K(); i++ {
		tc.cols[i] = make([]byte, tc.PacketLen())
		rng.Read(tc.cols[i])
	}
}

// fillChecks computes the check columns in order, so a static row may name
// an earlier check.
func (tc *testCode) fillChecks() {
	for j, srcs := range tc.checks {
		tc.cols[tc.K()+j] = make([]byte, tc.PacketLen())
		for _, i := range srcs {
			gf.XORSlice(tc.cols[tc.K()+j], tc.cols[i])
		}
	}
}

// columns returns the columns XORed into packet index.
func (tc *testCode) columns(index uint32, buf []int) []int {
	if int64(index) < int64(tc.Systematic) {
		return append(buf[:0], int(index))
	}
	return tc.Draw.NeighborsInto(index, buf)
}

// packet returns the encoding packet with the given index.
func (tc *testCode) packet(index uint32) []byte {
	p := make([]byte, tc.PacketLen())
	for _, v := range tc.columns(index, nil) {
		gf.XORSlice(p, tc.cols[v])
	}
	return p
}

func (tc *testCode) checkSource(t testing.TB, d *Decoder) {
	t.Helper()
	got, err := d.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	for i, want := range tc.cols[:tc.K()] {
		if !bytes.Equal(got[i*tc.PacketLen():(i+1)*tc.PacketLen()], want) {
			t.Fatalf("source symbol %d differs from what was sent", i)
		}
	}
}

// oracle is the slow reference decoder: dense GF(2) elimination over every
// equation — static and received — and all L columns. It shares nothing
// with the engine but the equations themselves: no peeling, no gate, no
// reduced system.
type oracle struct {
	tc      *testCode
	indices []uint32 // distinct received indices, in arrival order
	data    [][]byte
}

func (o *oracle) add(index uint32, data []byte) {
	o.indices = append(o.indices, index)
	o.data = append(o.data, data)
}

// solve eliminates over the static equations plus the first n received
// packets. ok reports full column rank; every check column sits in a
// static equation with only earlier columns beside it, so that is exactly
// "the sources are determined".
func (o *oracle) solve(n int) (sol [][]byte, ok bool) {
	tc := o.tc
	s := len(tc.checks)
	l := tc.K() + s
	m := bitmat.New(s+n, l)
	rhs := make([][]byte, s+n)
	for j, srcs := range tc.checks {
		rhs[j] = make([]byte, tc.PacketLen())
		m.Set(j, tc.K()+j, true)
		for _, i := range srcs {
			m.Set(j, int(i), true)
		}
	}
	var nb []int
	for r := 0; r < n; r++ {
		rhs[s+r] = append([]byte(nil), o.data[r]...)
		nb = tc.columns(o.indices[r], nb)
		for _, v := range nb {
			m.Set(s+r, v, true)
		}
	}
	sol, _, ok = bitmat.TrySolve(m, rhs)
	return sol, ok
}

// fullRankAt returns the smallest n at which solve(n) succeeds, given that
// solve(len(indices)) does (rank is monotone in n).
func (o *oracle) fullRankAt() int {
	lo, hi := 0, len(o.indices)
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := o.solve(mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestEngineAgainstOracle is the differential safety net: over seeds ×
// loss patterns × {LT shape, raptor repair-only, systematic with loss,
// Tornado shape}, with duplicates mixed in, the engine must never be done
// before the sources are determined, must return exactly the oracle's
// solution, and must be done at exactly the oracle's full-rank point: the
// endgame's gate is exact, so the engine is maximum-likelihood. The
// Tornado shape's carousel cycles its bounded index space: check values
// arrive before the analysis, as known columns whose static rows name lower
// checks, and after it, with sources, as rows.
func TestEngineAgainstOracle(t *testing.T) {
	shapes := []struct {
		name         string
		checks, base func(k int) int
		table        bool
	}{
		{"lt", func(int) int { return 0 }, func(int) int { return 0 }, false},
		{"raptor-repair", func(k int) int { return k/8 + 3 }, func(k int) int { return k }, false},
		{"raptor-systematic", func(k int) int { return k/8 + 3 }, func(int) int { return 0 }, false},
		{"tornado", nil, func(int) int { return 0 }, true},
	}
	for _, shape := range shapes {
		early, late := 0, 0 // check values first delivered before and after the analysis
		for _, k := range []int{1, 2, 9, 40, 150, 400} {
			for seed := int64(1); seed <= 6; seed++ {
				loss := []float64{0, 0.1, 0.3, 0.6}[seed%4]
				var tc *testCode
				if shape.table {
					tc = newTableCode(k, 8, seed*1000+int64(k))
				} else {
					tc = newTestCode(k, shape.checks(k), 8, seed*1000+int64(k))
				}
				rng := rand.New(rand.NewSource(seed))
				d := NewDecoder(&tc.Code)
				o := &oracle{tc: tc}
				sent := map[uint32]bool{}
				limit := shape.base(k) + 20*k + 2000
				if shape.table {
					limit = 40 * tc.N() // cycles enough that, at 60 % loss, every index arrives
				}
				for i := shape.base(k); !d.Done(); i++ {
					if i > limit {
						t.Fatalf("%s k=%d seed=%d: no decode", shape.name, k, seed)
					}
					if rng.Float64() < loss {
						continue
					}
					index := uint32(i % tc.N())
					if n := len(o.indices); n > 0 && rng.Intn(8) == 0 {
						index = o.indices[rng.Intn(n)] // duplicate delivery
					} else if !sent[index] {
						sent[index] = true
						o.add(index, tc.packet(index))
						if int(index) >= tc.Systematic && int(index) < tc.Verbatim {
							if d.colOf == nil {
								early++
							} else {
								late++
							}
						}
					}
					done, err := d.Add(int(index), tc.packet(index))
					if err != nil {
						t.Fatal(err)
					}
					if done != d.Done() || d.Received() != len(o.indices) {
						t.Fatalf("%s k=%d seed=%d: done=%v Done()=%v Received()=%d after %d distinct",
							shape.name, k, seed, done, d.Done(), d.Received(), len(o.indices))
					}
				}
				sol, ok := o.solve(len(o.indices))
				if !ok {
					t.Fatalf("%s k=%d seed=%d: engine done after %d packets, before the sources are determined",
						shape.name, k, seed, len(o.indices))
				}
				got, err := d.Source()
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range sol[:k] {
					if !bytes.Equal(got[i*tc.PacketLen():(i+1)*tc.PacketLen()], want) {
						t.Fatalf("%s k=%d seed=%d: symbol %d differs from the oracle's", shape.name, k, seed, i)
					}
				}
				tc.checkSource(t, d)
				if at := o.fullRankAt(); len(o.indices) != at {
					t.Errorf("%s k=%d seed=%d loss=%.1f: done at %d distinct packets, the oracle at %d",
						shape.name, k, seed, loss, len(o.indices), at)
				}
			}
		}
		if shape.table && (early == 0 || late == 0) {
			t.Errorf("%s: %d check values before the analysis and %d after, want some of each", shape.name, early, late)
		}
	}
}

// TestOneAnalysisPerDecode: over random streams of every shape — loss,
// duplicates, a systematic prefix or none — the decoder analyses its system
// TestEncoderMatchesTestCode: the one encoder, over an LT shape (no static
// rows), a raptor shape (static rows over the sources) and a Tornado-like
// table (a second level naming the first, its values sent verbatim),
// computes the columns the test code holds and every packet it builds.
func TestEncoderMatchesTestCode(t *testing.T) {
	lt, rp, tb := newTestCode(60, 0, 16, 1), newTestCode(60, 9, 16, 2), newTableCode(60, 16, 3)
	for _, tc := range []*testCode{lt, rp, tb} {
		cols := tc.Columns(tc.cols[:tc.K()])
		for j, want := range tc.cols {
			if !bytes.Equal(cols[j], want) {
				t.Fatalf("K=%d Verbatim=%d: column %d differs", tc.K(), tc.Verbatim, j)
			}
		}
		for i := range min(tc.N(), 4*tc.K()) {
			got := make([]byte, tc.PacketLen())
			if f := tc.SourceOf(i); f >= 0 {
				got = cols[f]
			} else {
				tc.EncodeInto(got, cols, i)
			}
			if !bytes.Equal(got, tc.packet(uint32(i))) {
				t.Fatalf("K=%d Verbatim=%d: packet %d differs", tc.K(), tc.Verbatim, i)
			}
		}
	}
}

// at most once, and a lossless systematic receive not at all.
func TestOneAnalysisPerDecode(t *testing.T) {
	analysed := 0
	for _, k := range []int{1, 9, 150, 400} {
		for seed := int64(1); seed <= 8; seed++ {
			checks, base := 0, 0
			if seed%2 == 0 {
				checks = k/8 + 3
			}
			if seed%4 == 2 {
				base = k // raptor repair-only
			}
			loss := []float64{0, 0.1, 0.3}[seed%3]
			tc := newTestCode(k, checks, 8, seed)
			rng := rand.New(rand.NewSource(seed))
			d := NewDecoder(&tc.Code)
			for i := base; !d.Done(); i++ {
				if rng.Float64() < loss {
					continue
				}
				index := uint32(i)
				if rng.Intn(8) == 0 && i > base {
					index = uint32(base + rng.Intn(i-base)) // a duplicate, or a late packet
				}
				if _, err := d.Add(int(index), tc.packet(index)); err != nil {
					t.Fatal(err)
				}
			}
			tc.checkSource(t, d)
			if d.analyses > 1 {
				t.Errorf("k=%d seed=%d: %d analyses", k, seed, d.analyses)
			}
			analysed += d.analyses
			if checks > 0 && base == 0 && loss == 0 && d.analyses != 0 {
				t.Errorf("k=%d seed=%d: a lossless systematic receive analysed", k, seed)
			}
		}
	}
	if analysed < 16 {
		t.Fatalf("only %d of 32 decodes analysed", analysed)
	}
}

// TestLosslessSystematicAllocatesTheFile: a receiver of the K systematic
// packets allocates the file and one bit per packet, plus a constant. The
// file is whole pages, so the allocator rounds nothing up.
func TestLosslessSystematicAllocatesTheFile(t *testing.T) {
	const k, pl = 4096, 64
	tc := newTestCode(k, k/8, pl, 5)
	pkts := make([][]byte, k)
	for i := range pkts {
		pkts[i] = tc.packet(uint32(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDecoder(&tc.Code)
	for i, p := range pkts {
		if done, err := d.Add(i, p); err != nil || done != (i == k-1) {
			t.Fatalf("packet %d: done=%v err=%v", i, done, err)
		}
	}
	runtime.ReadMemStats(&after)
	tc.checkSource(t, d)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(k*pl+k/8+1024); got > limit {
		t.Fatalf("lossless systematic receive allocated %d B, want ≤ %d (file %d + bits %d + 1 KiB)", got, limit, k*pl, k/8)
	}
	if d.Released() != 0 || d.XORs() != 0 {
		t.Fatalf("released %d, xors %d, want 0 and 0", d.Released(), d.XORs())
	}
}

// TestRepairOnlyAllocatesOneFile: a receiver that decodes from coded
// packets keeps them in the file's own slots, so a repair-only raptor-shaped
// decode and an LT decode allocate less than 1.5 files in all, not a file
// of payloads plus the file they solve into.
func TestRepairOnlyAllocatesOneFile(t *testing.T) {
	const k, pl = 1000, 1024
	for _, shape := range []struct {
		name   string
		checks int
		base   uint32
	}{{"raptor-repair", k/8 + 3, k}, {"lt", 0, 0}} {
		tc := newTestCode(k, shape.checks, pl, 9)
		pkts := make([][]byte, 2*k)
		for i := range pkts {
			pkts[i] = tc.packet(shape.base + uint32(i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(&tc.Code)
		for i := 0; !d.Done(); i++ {
			if _, err := d.Add(int(shape.base)+i, pkts[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		tc.checkSource(t, d)
		files := float64(after.TotalAlloc-before.TotalAlloc) / (k * pl)
		t.Logf("%s: %.2f files", shape.name, files)
		if files >= 1.5 {
			t.Errorf("%s: decode allocated %.2f files, want < 1.5", shape.name, files)
		}
	}
}

// TestSystematicIntoOwnedSlots: coded packets arrive first and wait in the
// low slots; then the systematic packets of those slots arrive, before the
// analysis (each moves the payload in its slot on) and after it (each is a
// row like a coded one). The decoder must still be done at exactly the
// oracle's full-rank packet with the source's bytes.
func TestSystematicIntoOwnedSlots(t *testing.T) {
	for _, k := range []int{2, 9, 60, 200} {
		for seed := int64(1); seed <= 8; seed++ {
			tc := newTestCode(k, k/8+3, 8, seed)
			d := NewDecoder(&tc.Code)
			o := &oracle{tc: tc}
			add := func(index uint32) {
				t.Helper()
				if _, err := d.Add(int(index), tc.packet(index)); err != nil {
					t.Fatal(err)
				}
				if d.Received() > len(o.indices) {
					o.add(index, tc.packet(index))
				}
			}
			repair := uint32(k)
			for d.Received() < (k+1)/2 {
				add(repair)
				repair++
			}
			owned := func(v int) bool { return d.owner != nil && d.owner[v] >= 0 }
			for v := 0; v < k && !d.Done(); v += 2 {
				if owned(v) {
					analysed := d.colOf != nil
					add(uint32(v))
					if !analysed && owned(v) {
						t.Fatalf("k=%d seed=%d: slot %d holds a coded payload after its systematic packet", k, seed, v)
					}
				}
			}
			for d.colOf == nil && !d.Done() {
				add(repair)
				repair++
			}
			for v := 1; v < k && !d.Done(); v += 2 {
				if owned(v) {
					add(uint32(v))
				}
			}
			for !d.Done() {
				add(repair)
				repair++
			}
			tc.checkSource(t, d)
			if at := o.fullRankAt(); len(o.indices) != at {
				t.Errorf("k=%d seed=%d: done at %d distinct packets, the oracle at %d", k, seed, len(o.indices), at)
			}
		}
	}
}

// TestPermutePlacesChainsAndCycles drives the placement on a laid-out
// solution: values in place, a chain from a slot whose content nobody needs
// through two slots to the spill, a single value in the spill, and a
// 2-cycle and a 3-cycle. Every slot must end holding its own value, with
// one scratch copy per cycle.
func TestPermutePlacesChainsAndCycles(t *testing.T) {
	const pl = 4
	from := []int32{
		0,        // in place
		2, 3, -1, // chain: 1 ← 2 ← 3 ← spill 0
		5, 4, // 2-cycle
		7, 8, 6, // 3-cycle
		-2, // from spill 1 into a slot nobody needs
		10, // in place
	}
	value := func(v int) []byte { return bytes.Repeat([]byte{byte(v + 1)}, pl) }
	d := &Decoder{
		c:     &Code{Sources: len(from), PacketBytes: pl},
		out:   code.SourceBuf{K: len(from), PacketLen: pl},
		spill: make([]byte, 2*pl),
	}
	for v := range from {
		copy(d.out.Slot(v), "junk") // what a slot whose content nobody needs holds
	}
	for v, j := range from {
		copy(d.at(j), value(v))
	}
	if cycles := d.permute(append([]int32(nil), from...), make([]int32, len(from))); cycles != 2 {
		t.Errorf("%d cycles, want 2", cycles)
	}
	for v := range from {
		if got := d.out.Slot(v); !bytes.Equal(got, value(v)) {
			t.Errorf("slot %d holds %v, want %v", v, got, value(v))
		}
	}
}
