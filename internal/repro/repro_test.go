package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// The experiment generators are exercised end-to-end at tiny scales: they
// must run, produce the expected row structure, and show the paper's
// qualitative relationships.

func tinyOptions() Options {
	return Options{Seed: 7, Trials: 30}
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simple XOR") {
		t.Fatal("missing properties row")
	}
}

func TestTable2And3Run(t *testing.T) {
	o := tinyOptions()
	var buf bytes.Buffer
	if err := Table2(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"250 KB", "500 KB", "1 MB", "Tornado A"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Table2 missing %q:\n%s", s, out)
		}
	}
	buf.Reset()
	if err := Table3(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Vandermonde") {
		t.Fatal("Table3 missing header")
	}
}

func TestFig2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tornado-a") || !strings.Contains(out, "tornado-b") {
		t.Fatalf("Fig2 incomplete:\n%s", out)
	}
}

func TestTable4Runs(t *testing.T) {
	o := Options{Seed: 7, Trials: 30}
	var buf bytes.Buffer
	if err := Table4(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatal("Table4 missing header")
	}
}

func TestFig4ShowsTornadoAdvantage(t *testing.T) {
	o := Options{Seed: 7, Trials: 200}
	var buf bytes.Buffer
	if err := Fig4(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Tornado A") || !strings.Contains(out, "Interleaved k=20") {
		t.Fatalf("Fig4 incomplete:\n%s", out)
	}
}

func TestFig5Runs(t *testing.T) {
	o := Options{Seed: 7, Trials: 120}
	var buf bytes.Buffer
	if err := Fig5(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "500 receivers") {
		t.Fatal("Fig5 missing header")
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Trace-driven") {
		t.Fatal("Fig6 missing header")
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Spot-check distinctive cells from the paper's Table 5.
	for _, cell := range []string{"0-3", "4-7", "4-5", "6-7"} {
		if !strings.Contains(out, cell) {
			t.Fatalf("Table5 missing cell %q:\n%s", cell, out)
		}
	}
}

// TestFig8Runs pins the whole Fig. 8 table: virtual time and seeded loss
// make the run deterministic, so any change to what the carousel emits, in
// what order, or how the client accounts it moves the hash.
func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 runs the full prototype")
	}
	var buf bytes.Buffer
	if err := Fig8(&buf, DefaultOptions()); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "single layer") || !strings.Contains(out, "4 layers") {
		t.Fatalf("Fig8 incomplete:\n%s", out)
	}
	const want = "57a926766e6c1e583509e7d1642b56d4ccfee8fb4aebe528352ad5caf126da9e"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("Fig8 output hash %s, want %s:\n%s", got, want, out)
	}
}

func TestOverheadCDFCached(t *testing.T) {
	c1, err := overheadCDF(tornadoParamsA(), 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := overheadCDF(tornadoParamsA(), 256, 1)
	if c1 != c2 {
		t.Fatal("CDF not cached")
	}
}
