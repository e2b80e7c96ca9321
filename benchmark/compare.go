package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// median returns the middle value (the mean of the middle two), NaN for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(vs, n=4)
// gives — the rule the driver accepts or refuses a benchmark by. Fewer than
// two values have no spread.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / median(s))
}

// contract is the part of BENCHMARK.json -compare needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// readRecords reads the records -out appended to a file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	for dec := json.NewDecoder(f); ; {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// compareFiles applies the contract's bounds to two sets of runs, one row
// per workload and end-to-end metric. A row is regressed when the new median
// is worse than the old by more than the bound; otherwise unresolved when
// either file's own samples spread wider than the bound, and ok when not.
// The exit code is 1 on any regressed row or a higher failure ratio.
func compareFiles(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readContract(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s: no end_to_end metrics", specPath)
	}
	var olds, news []record
	if err == nil {
		olds, err = readRecords(oldPath)
	}
	if err == nil {
		news, err = readRecords(newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	values := func(recs []record, workload, name string) (vs []float64) {
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	failures := func(recs []record, workload string) (ratio float64) {
		var attempted, failed int
		for _, r := range recs {
			if r.Workload == workload {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}

	code := 0
	fmt.Fprintf(stdout, "%-22s %-22s %12s %12s  %-24s %6s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := values(olds, w.Name, m.Name), values(news, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(stdout, "%-22s %-22s %12s %12s  %-24s %6.2f  missing (%d old, %d new runs)\n",
					w.Name, m.Name, "-", "-", "-", m.Bound, len(o), len(n))
				code = 1
				continue
			}
			om, nm := median(o), median(n)
			worse := nm/om - 1
			if m.Better == "higher" {
				worse = 1 - nm/om
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case spread(o) > m.Bound || spread(n) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread old %.3f, new %.3f)", spread(o), spread(n))
			}
			fmt.Fprintf(stdout, "%-22s %-22s %12.4f %12.4f  %-24s %6.2f  %s\n",
				w.Name, m.Name, om, nm, fmt.Sprintf("%.3fx of %.4g %s", nm/om, om, m.Unit), m.Bound, verdict)
		}
		if fo, fn := failures(olds, w.Name), failures(news, w.Name); fn > fo {
			fmt.Fprintf(stdout, "%-22s %-22s %12.4f %12.4f  failure ratio rose: regressed\n", w.Name, "failure_ratio", fo, fn)
			code = 1
		} else {
			fmt.Fprintf(stdout, "%-22s %-22s %12.4f %12.4f  ok\n", w.Name, "failure_ratio", fo, fn)
		}
	}
	return code
}
