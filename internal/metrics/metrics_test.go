package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics: atomic arithmetic, zero value ready.
func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

// TestHistogramBuckets: observations land in the first bucket whose bound
// holds them, cumulative exposition matches, sum counts non-negatives.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 8, 32)
	for _, v := range []int64{0, 1, 2, 8, 9, 32, 33, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	if got := h.Sum(); got != 1085 {
		t.Fatalf("sum = %d, want 1085", got)
	}
	want := []uint64{2, 2, 2, 2} // (<=1)=0,1; (<=8)=2,8; (<=32)=9,32; +Inf=33,1000
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

// TestWriteToFormat: the exposition must group HELP/TYPE per base name,
// keep label suffixes verbatim, and expand histograms to cumulative
// buckets.
func TestWriteToFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_packets_total", "packets")
	c.Add(5)
	r.Counter(`test_backlog{shard="1"}`, "per-shard backlog").Add(2)
	r.Counter(`test_backlog{shard="0"}`, "").Add(3)
	r.GaugeFunc("test_sessions", "sessions", func() float64 { return 4 })
	h := r.Histogram("test_batch_size", "batch sizes", 1, 8)
	h.Observe(1)
	h.Observe(5)
	h.Observe(99)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE test_packets_total counter\n",
		"test_packets_total 5\n",
		`test_backlog{shard="1"} 2` + "\n",
		`test_backlog{shard="0"} 3` + "\n",
		"# TYPE test_sessions gauge\n",
		"test_sessions 4\n",
		"# TYPE test_batch_size histogram\n",
		`test_batch_size_bucket{le="1"} 1` + "\n",
		`test_batch_size_bucket{le="8"} 2` + "\n",
		`test_batch_size_bucket{le="+Inf"} 3` + "\n",
		"test_batch_size_sum 105\n",
		"test_batch_size_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if got := strings.Count(text, "# TYPE test_backlog "); got != 1 {
		t.Fatalf("test_backlog TYPE headers = %d, want 1:\n%s", got, text)
	}
	// Every non-comment line must parse as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}

// TestHistogramNegativeClamp: negative observations must be clamped to
// zero — counted in the first bucket, contributing nothing to the sum — so
// a single bad measurement (e.g. clock skew producing a negative latency)
// cannot wrap the unsigned sum and poison the _sum series forever.
func TestHistogramNegativeClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("neg_test", "latencies", 10, 100)
	h.Observe(-5)
	h.Observe(-1 << 40)
	h.Observe(7)
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 7 {
		t.Fatalf("sum = %d, want 7 (negative observations leaked in)", got)
	}
	// Regression on the exposition itself: without the clamp the _sum line
	// rendered as an astronomically large wrapped uint64.
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`neg_test_bucket{le="10"} 3` + "\n", // both negatives clamp into the first bucket
		`neg_test_bucket{le="100"} 3` + "\n",
		`neg_test_bucket{le="+Inf"} 3` + "\n",
		"neg_test_sum 7\n",
		"neg_test_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHelpEscaping: HELP text containing backslashes or newlines must be
// escaped per the text format — an unescaped newline would split the
// comment into a garbage line no scraper can parse.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "path C:\\tmp\nsecond line").Add(1)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := `# HELP esc_total path C:\\tmp\nsecond line` + "\n"
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing %q:\n%s", want, text)
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Fatalf("help newline broke the exposition: %q", line)
		}
	}
	// The common case — plain help — must not pay an allocation for escaping.
	if s := escapeHelp("plain help text"); s != "plain help text" {
		t.Fatalf("escapeHelp mangled plain text: %q", s)
	}
}

// TestLabelEscaping: Label must escape backslash, quote, and newline in the
// value so hostile or merely unlucky label values (file paths, addresses)
// stay inside the quotes.
func TestLabelEscaping(t *testing.T) {
	got := Label("files_total", "path", "C:\\data\n\"x\"")
	want := `files_total{path="C:\\data\n\"x\""}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	if got := Label("a", "k", "v"); got != `a{k="v"}` {
		t.Fatalf("Label = %q", got)
	}
	// End to end: the escaped series must register and expose as one
	// parseable line with the suffix verbatim.
	r := NewRegistry()
	r.Counter(Label("files_total", "path", `a"b`), "").Add(4)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `files_total{path="a\"b"} 4`+"\n") {
		t.Fatalf("escaped label series missing:\n%s", sb.String())
	}
}

// TestWriteToConcurrentConsistency: every single exposition rendered while
// observations race must be internally consistent — buckets cumulative and
// monotone within the scrape, the +Inf bucket equal to _count, and _count
// never regressing across scrapes.
func TestWriteToConcurrentConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ht", "", 2, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(i % 32)
		}
	}()
	var lastCount uint64
	for i := 0; i < 300; i++ {
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		var cum []uint64
		var count uint64
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "ht_bucket"):
				var v uint64
				if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
					t.Fatalf("bad bucket line %q: %v", line, err)
				}
				cum = append(cum, v)
			case strings.HasPrefix(line, "ht_count"):
				if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count); err != nil {
					t.Fatalf("bad count line %q: %v", line, err)
				}
			}
		}
		if len(cum) != 3 {
			t.Fatalf("scrape %d: %d bucket lines, want 3", i, len(cum))
		}
		for j := 1; j < len(cum); j++ {
			if cum[j] < cum[j-1] {
				t.Fatalf("scrape %d: buckets not cumulative: %v", i, cum)
			}
		}
		if cum[len(cum)-1] != count {
			t.Fatalf("scrape %d: +Inf bucket %d != _count %d", i, cum[len(cum)-1], count)
		}
		if count < lastCount {
			t.Fatalf("scrape %d: _count regressed %d -> %d", i, lastCount, count)
		}
		lastCount = count
	}
	close(stop)
	wg.Wait()
}

// TestSnapshot: every series appears, sorted, histograms as _count/_sum.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Counter("a_total", "").Add(1)
	h := r.Histogram("h", "", 4)
	h.Observe(3)
	got := r.Snapshot()
	want := []Sample{{"a_total", 1}, {"b_total", 2}, {"h_count", 1}, {"h_sum", 3}}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDuplicateRegistrationPanics: series names are unique per registry.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "")
}

// TestConcurrentScrapeAndUpdate: scraping while updating must be race-free
// (run under -race) and counters must read monotonically.
func TestConcurrentScrapeAndUpdate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "")
	h := r.Histogram("hist", "", 2, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			h.Observe(i % 32)
		}
	}()
	var last uint64
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		r.WriteTo(&sb)
		for _, s := range r.Snapshot() {
			if s.Name == "mono_total" {
				if v := uint64(s.Value); v < last {
					t.Errorf("counter regressed: %d -> %d", last, v)
				} else {
					last = v
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestUpdateZeroAlloc: the hot-path update ops must not allocate.
func TestUpdateZeroAlloc(t *testing.T) {
	var c Counter
	h := NewHistogram(1, 8, 64)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(7)
	}); n != 0 {
		t.Fatalf("update path allocates %.2f allocs/op, want 0", n)
	}
}
