package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// committedRows reads the codec rows of the BENCH_codecs.json at the
// repository root.
func committedRows(t *testing.T) []result {
	t.Helper()
	buf, err := os.ReadFile("../../BENCH_codecs.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Results
}

func TestCheckDecodeGates(t *testing.T) {
	edit := func(name, op string, k int, f func(*result)) func([]result) []result {
		return func(rows []result) []result {
			for i := range rows {
				if rows[i].Name == name && rows[i].Op == op && rows[i].K == k {
					f(&rows[i])
				}
			}
			return rows
		}
	}
	drop := func(name, op string, k int) func([]result) []result {
		return func(rows []result) []result {
			kept := rows[:0]
			for _, r := range rows {
				if r.Name != name || r.Op != op || r.K != k {
					kept = append(kept, r)
				}
			}
			return kept
		}
	}
	cases := []struct {
		name string
		edit func([]result) []result
		want string // substring of the error; "" for a pass
	}{
		{"committed", func(rows []result) []result { return rows }, ""},
		{"missing tornado row", drop("tornado-b", "decode", 512), "vacuous"},
		{"missing rateless row", drop("raptor", "decode-repair", 10000), "vacuous"},
		{"missing ratio row", drop("rs-cauchy", "encode", 512), "vacuous"},
		{"overhead", edit("lt", "decode", 1000, func(r *result) { r.Overhead = 1.2 }), "overhead"},
		{"allocs", edit("tornado-a", "decode", 512, func(r *result) { r.AllocsPerOp = 81 }), "allocs/op"},
		{"files", edit("raptor", "decode", 10000, func(r *result) { r.BytesPerOp = 2 * 10000 * 1024 }), "files"},
		{"encode ratio", edit("tornado-a", "encode", 512, func(r *result) { r.MBPerSec = 10 }), "rs-cauchy encode"},
		{"decode ratio", edit("rs-cauchy", "decode", 512, func(r *result) { r.MBPerSec = 100 }), "rs-cauchy decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkDecodeGates(tc.edit(committedRows(t)))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("committed rows fail: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("gates passed")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
