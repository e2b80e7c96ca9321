package losstrace

import (
	"bytes"
	"math"
	"testing"
)

func TestGenerateStatistics(t *testing.T) {
	p := DefaultGenParams()
	p.Length = 8000 // keep the test fast
	traces := Generate(p)
	if len(traces) != 120 {
		t.Fatalf("got %d traces", len(traces))
	}
	mean := MeanLoss(traces)
	if math.Abs(mean-0.18) > 0.03 {
		t.Fatalf("population mean loss %v, want ≈ 0.18", mean)
	}
	// Heterogeneity: some receivers < 5%, some > 30% (§6.4: "less than 1%
	// to over 30%").
	low, high := 0, 0
	for _, tr := range traces {
		r := tr.LossRate()
		if r < 0.05 {
			low++
		}
		if r > 0.30 {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("population not heterogeneous: %d low, %d high", low, high)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultGenParams()
	p.Length = 500
	a := Generate(p)
	b := Generate(p)
	for i := range a {
		for j := range a[i].Lost {
			if a[i].Lost[j] != b[i].Lost[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	p2 := p
	p2.Seed++
	c := Generate(p2)
	same := true
	for j := range a[0].Lost {
		if a[0].Lost[j] != c[0].Lost[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trace")
	}
}

func TestReplayCyclesAndOffsets(t *testing.T) {
	tr := &Trace{Receiver: "x", Lost: []bool{true, false, false}}
	r := tr.Replay(1)
	want := []bool{false, false, true, false, false, true}
	for i, w := range want {
		if got := r.Lose(); got != w {
			t.Fatalf("step %d: got %v want %v", i, got, w)
		}
	}
	// Empty trace replays as lossless.
	e := (&Trace{}).Replay(0)
	if e.Lose() {
		t.Fatal("empty trace lost a packet")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := DefaultGenParams()
	p.Receivers = 7
	p.Length = 1000
	traces := Generate(p)
	var buf bytes.Buffer
	if err := Write(&buf, traces); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(traces) {
		t.Fatalf("got %d traces back", len(back))
	}
	for i := range traces {
		if back[i].Receiver != traces[i].Receiver {
			t.Fatalf("name mismatch at %d", i)
		}
		if len(back[i].Lost) != len(traces[i].Lost) {
			t.Fatalf("length mismatch at %d", i)
		}
		for j := range traces[i].Lost {
			if back[i].Lost[j] != traces[i].Lost[j] {
				t.Fatalf("bit mismatch at %d/%d", i, j)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestGenerateEmpty(t *testing.T) {
	if Generate(GenParams{}) != nil {
		t.Fatal("zero params should produce nil")
	}
}

func TestLossRate(t *testing.T) {
	tr := &Trace{Lost: []bool{true, true, false, false}}
	if tr.LossRate() != 0.5 {
		t.Fatal("loss rate wrong")
	}
	if (&Trace{}).LossRate() != 0 {
		t.Fatal("empty loss rate wrong")
	}
}
