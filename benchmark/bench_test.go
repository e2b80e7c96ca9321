package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is every workload cut down to k = 200 and five timed downloads per
// phase, so the whole table runs in a few seconds under the race detector.
var small = options{seed: 1, seconds: 1, trace: -1, n: 5, k: 200}

func TestWorkloadsSmall(t *testing.T) {
	spec, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	if want := len(endToEndMetrics) + len(perLayerMetrics); len(units) != want {
		t.Fatalf("BENCHMARK.json names %d metrics, the benchmark has %d", len(units), want)
	}

	var runs [][]span
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		rec, spans, err := runWorkload(w, small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.N != small.n || rec.TracedN != small.n || rec.Attempted != 2*small.n {
			t.Errorf("%s: correct=%v failed=%d n=%d traced=%d attempted=%d",
				w.name, rec.Correct, rec.Failed, rec.N, rec.TracedN, rec.Attempted)
		}
		for _, name := range append(append([]string(nil), endToEndMetrics...), perLayerMetrics...) {
			m, ok := rec.Metrics[name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s missing or not finite: %+v", w.name, name, m)
			}
			if m.Unit != units[name] {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, units[name])
			}
		}
		for _, name := range endToEndMetrics {
			if rec.Metrics[name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, rec.Metrics[name].Value)
			}
		}
		if !w.udp {
			// One goroutine does everything, so the self times must add up.
			if b := rec.Metrics["bench.budget_ratio"].Value; math.Abs(b-1) > 0.05 {
				t.Errorf("%s: span budget is %.3f of the traced wall time, want within 5%%", w.name, b)
			}
		}
		if len(spans) == 0 {
			t.Errorf("%s: the traced phase kept no spans", w.name)
		}
		runs = append(runs, spans)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, runs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Dur  float64
		}
	}
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file: %v, %d events", err, len(trace.TraceEvents))
	}
}

// The replayed decode is part of what intake did, so it cannot have taken
// longer. At this k both are well under a millisecond and a single preemption
// doubles either, so compare the fastest of several downloads, and allow the
// two measurements to differ by up to a factor of two.
func TestReplayedDecodeWithinIntake(t *testing.T) {
	for _, w := range workloads {
		if w.udp {
			continue
		}
		p, err := runPhase(w, small, true, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		dec, in := math.Inf(1), math.Inf(1)
		for _, s := range p.ok {
			dec = min(dec, ms(s.lay.decodeAdd+s.lay.decodeSource))
			in = min(in, ms(s.lay.intake))
		}
		if dec > 2*in {
			t.Errorf("%s: replayed decode %.3f ms > intake %.3f ms", w.name, dec, in)
		}
	}
}

// A wrong byte in a delivered file must surface as a failed download, an
// incorrect result and a non-zero exit.
func TestFlippedByteFails(t *testing.T) {
	o := small
	o.trace = 0
	o.tamper = func(file []byte) { file[len(file)/2] ^= 1 }
	var stdout, stderr bytes.Buffer
	if code := runAll(workloads[:1], o, environment{}, "", "", &stdout, &stderr); code == 0 {
		t.Errorf("exit code 0 for a run that delivered a wrong byte")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output: %v", err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Errorf("result %+v, want incorrect with a failed download", res)
	}
	if !strings.Contains(stderr.String(), "differs from its source") {
		t.Errorf("stderr does not name the wrong file: %q", stderr.String())
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(vs, n=4) gives (2.75, 5.5, 8.25) and (1.25, 3.5, 5.75).
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 4.5 / 3.5},
		{[]float64{7}, 0},
	} {
		if got := spread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "rate", "unit": "MB/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, failed int, lats, rates []float64) string {
		path := filepath.Join(dir, name)
		for i := range lats {
			rec := record{Workload: "w", result: result{Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"lat": {lats[i], "ms"}, "rate": {rates[i], "MB/s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", 0, []float64{100, 101, 99, 100, 102}, []float64{50, 51, 49, 50, 50})
	for _, c := range []struct {
		name     string
		path     string
		code     int
		verdicts []string
	}{
		{"same", write("same", 0, []float64{101, 100, 100, 99, 103}, []float64{50, 50, 51, 49, 50}), 0, []string{"ok", "ok"}},
		{"slower", write("slower", 0, []float64{120, 121, 119, 120, 122}, []float64{50, 51, 49, 50, 50}), 1, []string{"regressed", "ok"}},
		{"less", write("less", 0, []float64{100, 101, 99, 100, 102}, []float64{40, 41, 39, 40, 40}), 1, []string{"ok", "regressed"}},
		{"noisy", write("noisy", 0, []float64{80, 120, 100, 70, 130}, []float64{50, 51, 49, 50, 50}), 0, []string{"unresolved", "ok"}},
		{"failing", write("failing", 1, []float64{100, 101, 99, 100, 102}, []float64{50, 51, 49, 50, 50}), 1, []string{"ok", "ok", "failure ratio rose"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(spec, base, c.path, &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:]
		for i, want := range c.verdicts {
			if i >= len(rows) || !strings.Contains(rows[i], want) {
				t.Errorf("%s: row %d does not say %q:\n%s", c.name, i, want, stdout.String())
			}
		}
	}
}
