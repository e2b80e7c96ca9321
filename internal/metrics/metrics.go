// Package metrics is the observability substrate of the fountain stack: a
// small registry of atomically updated counters, sampled gauges, and
// fixed-bucket histograms with a Prometheus text exposition writer.
//
// The design constraint is the send and intake hot paths: a paced server
// emits hundreds of thousands of packets per second through code that is
// proven allocation-free by hard bench gates, and instrumentation must not
// bend that. So every series name is interned at registration time, every
// update is plain sync/atomic arithmetic on pre-existing memory (one
// atomic add for a counter, two for a histogram observation), and
// nothing on the update path takes a lock, formats a string, or allocates.
// All rendering cost — sorting, formatting, bucket accumulation — is paid
// by the scraper, not the hot path.
//
// A component keeps its counts where its hot path updates them — a
// metrics.Counter field, an evtrace.Counted for a count that is also a
// flight-recorder event, an atomic, a mutex-guarded field — and exposes them
// through AddCounter or the func-backed series (CounterFunc, GaugeFunc),
// which the registry samples at scrape time. Every gauge is sampled: a
// gauge reports state the component already holds.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; embed it by value. Inc/Add are safe for concurrent use and never
// allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must keep counters monotone: n is unsigned).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram counts integer observations into fixed buckets chosen at
// construction. Observe costs two atomic adds (bucket + sum) and a linear
// scan over the bounds — bound lists on the hot paths are short (batch
// sizes), so the scan stays in one cache line. Bucket counts are stored
// per-bucket (not cumulative); the exposition writer accumulates.
type Histogram struct {
	bounds []int64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (an observation v lands in the first bucket with v <= bound, else the
// implicit +Inf bucket).
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation. Negative observations are clamped to
// zero: they count in the first bucket and contribute nothing to the sum.
// The sum is an unsigned atomic (one add, no CAS loop, on the hot path),
// so a negative value added verbatim would wrap it by ~2^64 and corrupt
// every subsequent scrape of the _sum series; clamping keeps the count
// honest while bounding the damage of a caller's bad clock math to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all non-negative observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// kind discriminates the exposition TYPE of a registered series.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// series is one registered time series: an interned name (optionally
// carrying a {label="..."} suffix) and a way to read its current value.
type series struct {
	name string // full series name, label suffix included
	base string // name with the label suffix stripped (HELP/TYPE grouping)
	kind kind
	help string
	c    *Counter
	h    *Histogram
	cf   func() uint64
	gf   func() float64
}

// Registry holds registered series. Registration (which interns names and
// may allocate) happens at wiring time; scraping walks the series and reads
// each one atomically. A Registry is safe for concurrent registration and
// scraping, and the same Counter/Histogram may be registered in any
// number of registries.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byName map[string]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// Label builds a series name carrying one label: base{key="value"}, with
// the value escaped per the Prometheus text format (backslash, double
// quote, and newline become \\, \", and \n). Use it wherever a label value
// is not a literal under the caller's control — a file name, an address, an
// operator-supplied tag — so a stray quote cannot break the exposition into
// unparseable lines.
func Label(base, key, value string) string {
	var b strings.Builder
	b.Grow(len(base) + len(key) + len(value) + 5)
	b.WriteString(base)
	b.WriteByte('{')
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline only (quotes are legal in help text). Returns s unchanged — no
// allocation — when nothing needs escaping.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// baseName strips a {label="..."} suffix off a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) register(s *series) {
	if s.name == "" || baseName(s.name) == "" {
		panic("metrics: empty series name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %q", s.name))
	}
	r.byName[s.name] = struct{}{}
	s.base = baseName(s.name)
	r.series = append(r.series, s)
}

// Counter registers and returns a new counter. The name may carry a
// Prometheus label suffix (`foo_total{shard="3"}`); the suffix is kept
// verbatim in the exposition and stripped for HELP/TYPE grouping.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.AddCounter(name, help, c)
	return c
}

// AddCounter registers an existing counter under name.
func (r *Registry) AddCounter(name, help string, c *Counter) {
	r.register(&series{name: name, kind: kindCounter, help: help, c: c})
}

// CounterFunc registers a counter series whose value is sampled from fn at
// scrape time — the bridge for components that already keep their own
// atomic or lock-guarded monotone counters. fn must be safe for concurrent
// use and must never regress.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&series{name: name, kind: kindCounter, help: help, cf: fn})
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&series{name: name, kind: kindGauge, help: help, gf: fn})
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds.
func (r *Registry) Histogram(name, help string, bounds ...int64) *Histogram {
	h := NewHistogram(bounds...)
	r.AddHistogram(name, help, h)
	return h
}

// AddHistogram registers an existing histogram under name. Histogram names
// cannot carry a label suffix (the bucket lines own the le label).
func (r *Registry) AddHistogram(name, help string, h *Histogram) {
	if strings.IndexByte(name, '{') >= 0 {
		panic(fmt.Sprintf("metrics: histogram %q cannot carry labels", name))
	}
	r.register(&series{name: name, kind: kindHistogram, help: help, h: h})
}

// Sample is one scraped value of Snapshot (histograms contribute their
// _count and _sum under suffixed names).
type Sample struct {
	Name  string
	Value float64
}

// Snapshot reads every registered series once, in name order. It is the
// programmatic twin of WriteTo for tests and control-plane consumers.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ss := append([]*series(nil), r.series...)
	r.mu.Unlock()
	out := make([]Sample, 0, len(ss))
	for _, s := range ss {
		switch s.kind {
		case kindCounter:
			out = append(out, Sample{s.name, float64(s.counterValue())})
		case kindGauge:
			out = append(out, Sample{s.name, s.gf()})
		case kindHistogram:
			out = append(out, Sample{s.name + "_count", float64(s.h.Count())})
			out = append(out, Sample{s.name + "_sum", float64(s.h.Sum())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *series) counterValue() uint64 {
	if s.cf != nil {
		return s.cf()
	}
	return s.c.Load()
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): series grouped by base name with one HELP/TYPE header
// each, histograms expanded to cumulative _bucket/_sum/_count lines. Groups
// appear in base-name order; series within a group keep registration order
// (so labeled shard series stay in shard order).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	ss := append([]*series(nil), r.series...)
	r.mu.Unlock()

	// Group by base name, groups sorted, registration order kept within.
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].base < ss[j].base })

	var b strings.Builder
	lastBase := ""
	for _, s := range ss {
		if s.base != lastBase {
			lastBase = s.base
			if s.help != "" {
				b.WriteString("# HELP ")
				b.WriteString(s.base)
				b.WriteByte(' ')
				b.WriteString(escapeHelp(s.help))
				b.WriteByte('\n')
			}
			b.WriteString("# TYPE ")
			b.WriteString(s.base)
			b.WriteByte(' ')
			switch s.kind {
			case kindCounter:
				b.WriteString("counter")
			case kindGauge:
				b.WriteString("gauge")
			case kindHistogram:
				b.WriteString("histogram")
			}
			b.WriteByte('\n')
		}
		switch s.kind {
		case kindCounter:
			b.WriteString(s.name)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(s.counterValue(), 10))
			b.WriteByte('\n')
		case kindGauge:
			b.WriteString(s.name)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(s.gf(), 'g', -1, 64))
			b.WriteByte('\n')
		case kindHistogram:
			writeHistogram(&b, s)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram renders one histogram's cumulative bucket lines. The
// per-bucket counts are read once each; the cumulative sums are computed
// here, so a torn read across concurrent observations can only distribute
// an observation between adjacent scrapes, never lose it.
func writeHistogram(b *strings.Builder, s *series) {
	var cum uint64
	for i := range s.h.counts {
		cum += s.h.counts[i].Load()
		le := "+Inf"
		if i < len(s.h.bounds) {
			le = strconv.FormatInt(s.h.bounds[i], 10)
		}
		b.WriteString(s.base)
		b.WriteString(`_bucket{le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(s.base)
	b.WriteString("_sum ")
	b.WriteString(strconv.FormatUint(s.h.Sum(), 10))
	b.WriteByte('\n')
	b.WriteString(s.base)
	b.WriteString("_count ")
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
