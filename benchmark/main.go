// Command benchmark is the repository's whole-download benchmark: file →
// encode → service → transport → client → decode → digest, through the
// packages' public functions, with a per-layer budget from a separate traced
// run. See README.md for the workloads, the metrics and what each should move.
//
// The driver's contract (BENCHMARK.json at the root of the repository):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Without --trace both are
// measured and printed; without --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every run written by -out.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

// record is one workload run as -out appends it and -compare reads it.
type record struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    int         `json:"trace"`
	N        int         `json:"n"`        // timed untraced downloads
	TracedN  int         `json:"traced_n"` // timed traced downloads
	result
}

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   int // 0 end-to-end only, 1 per-layer only, -1 both
	n       int // timed downloads per phase; 0 = as many as fit in seconds
	// k and tamper are set by tests only: a smaller k for every session, and
	// a hook that damages each delivered file before it is checked.
	k      int
	tamper func([]byte)
}

// minDownloads is the fewest timed downloads a time-bounded phase makes.
const minDownloads = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Uint64("seed", 1, "run seed: every file, codec seed and loss seed derives from it")
		seconds  = fs.Float64("seconds", 15, "how long each workload measures")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics from untraced downloads; 1: per-layer metrics from traced ones; -1: both")
		n        = fs.Int("n", 0, "timed downloads per phase, for smoke runs (0: as many as fit in -seconds)")
		out      = fs.String("out", "", "append each workload's result, with the environment, to this JSON file")
		traceOut = fs.String("trace-out", "", "write the spans of each workload's first traced download as Chrome trace-event JSON")
		compare  = fs.Bool("compare", false, "compare two -out files under BENCHMARK.json's bounds: benchmark -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace < -1 || *trace > 1 || *seconds <= 0 || *n < 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit:    gitCommit(),
		Transport: "loopback: the udp-* workloads cross the host's loopback interface, never a link; the bus-* workloads stay in process",
	}
	fmt.Fprintf(stdout, "# %s/%s %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d\n# transport: %s\n",
		env.GOOS, env.GOARCH, env.GoVersion, env.GOMAXPROCS, env.NProc, env.Commit, *seed, env.Transport)
	opts := options{seed: *seed, seconds: *seconds, trace: *trace, n: *n}
	return runAll(selected, opts, env, *out, *traceOut, stdout, stderr)
}

// runAll runs the selected workloads in turn and returns the exit code: 0
// only if every download of every workload delivered the right bytes and
// every result is fit to use.
func runAll(selected []workload, opts options, env environment, out, traceOut string, stdout, stderr io.Writer) int {
	code := 0
	var spans [][]span
	for _, w := range selected {
		rec, sp, err := runWorkload(w, opts)
		rec.Env = env
		spans = append(spans, sp)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		printRecord(stdout, rec)
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
			}
		}
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var sel []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				sel, found = append(sel, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return sel, nil
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload measures one workload: an untraced phase for the end-to-end
// metrics, then (unless trace is 0) a traced phase for the per-layer ones.
// The error reports anything that makes the result unfit to use; the record
// is filled in as far as the run got.
func runWorkload(w workload, o options) (record, []span, error) {
	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	rec.Metrics = map[string]metric{}
	untracedFor, tracedFor := o.seconds, o.seconds/2
	switch o.trace {
	case 0:
		tracedFor = 0
	case 1:
		untracedFor = o.seconds / 2
	}

	untraced, err := runPhase(w, o, false, untracedFor)
	rec.N = len(untraced.ok)
	rec.Attempted, rec.Failed = untraced.attempted, untraced.failed
	if err == nil && o.trace != 1 {
		endToEnd(rec.Metrics, untraced.ok)
	}
	var spans []span
	if err == nil && tracedFor > 0 {
		var traced phase
		traced, err = runPhase(w, o, true, tracedFor)
		rec.TracedN = len(traced.ok)
		rec.Attempted += traced.attempted
		rec.Failed += traced.failed
		spans = traced.spans
		if err == nil {
			perLayer(rec.Metrics, untraced.ok, traced.ok)
		}
	}
	if err == nil {
		var want []string
		if o.trace != 1 {
			want = append(want, endToEndMetrics...)
		}
		if o.trace != 0 {
			want = append(want, perLayerMetrics...)
		}
		err = checkMetrics(rec.Metrics, want)
	}
	rec.Correct = err == nil && rec.Failed == 0
	if rec.Attempted == 0 {
		rec.Attempted = 1 // the run itself was attempted, and it failed
		rec.Failed = 1
	}
	return rec, spans, err
}

// phase is the outcome of one run of downloads, traced or not.
type phase struct {
	ok                []sample
	attempted, failed int
	spans             []span
}

// runPhase discards one warm-up download, then times downloads until the
// phase's seconds are used up (or exactly o.n of them). A failed download —
// timed out, errored, or delivering a wrong byte — is counted and ends the
// phase: it is never retried.
func runPhase(w workload, o options, traced bool, seconds float64) (phase, error) {
	var p phase
	r, err := newRig(w, o.seed, o.k, traced)
	if err != nil {
		return p, err
	}
	defer r.close()
	r.tamper = o.tamper
	// The warm-up has the first timed download's seed: on the bus workloads
	// the two must then agree exactly.
	seedOf := func(i int) uint64 { return o.seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 }
	warm := r.download(seedOf(0))
	if traced {
		p.spans = r.tr.spans
	}
	if warm.err != nil {
		p.attempted, p.failed = 1, 1
		return p, fmt.Errorf("warm-up download: %w", warm.err)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if o.n > 0 {
			if i >= o.n {
				break
			}
		} else if i >= minDownloads && time.Now().After(deadline) {
			break
		}
		s := r.download(seedOf(i))
		p.attempted++
		if s.err != nil {
			p.failed++
			return p, fmt.Errorf("download %d: %w", i, s.err)
		}
		if i == 0 && !w.udp {
			if err := sameCounts(warm, s); err != nil {
				return p, err
			}
		}
		p.ok = append(p.ok, s)
	}
	if len(p.ok) == 0 {
		return p, fmt.Errorf("no download completed")
	}
	if w.udp && r.datagrams == 0 {
		return p, fmt.Errorf("the receiver saw no datagrams")
	}
	return p, nil
}

// sameCounts checks that two bus downloads of one seed did exactly the same
// work: the bus workloads have no clock and no kernel in them, so any
// difference is nondeterminism in the program under test.
func sameCounts(a, b sample) error {
	if a.emitted != b.emitted || a.accepted != b.accepted {
		return fmt.Errorf("same seed, different work: emitted %d then %d, accepted %d then %d",
			a.emitted, b.emitted, a.accepted, b.accepted)
	}
	if a.lay != nil && b.lay != nil && a.lay.released != b.lay.released {
		return fmt.Errorf("same seed, different work: released %d then %d", a.lay.released, b.lay.released)
	}
	return nil
}

// endToEnd fills in the metrics a user of the system would see.
func endToEnd(m map[string]metric, ok []sample) {
	var walls, cpus, setups, allocs []float64
	var wall time.Duration
	var bytes int
	var overhead float64
	for _, s := range ok {
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu)/(float64(s.bytes)/1e6))
		setups = append(setups, s.setup.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		wall += s.wall
		bytes += s.bytes
		overhead += float64(s.accepted) / float64(s.k)
	}
	// goodput is the one mean among the timings: it carries the slow tail
	// that the medians leave out.
	m["download_ms_p50"] = metric{median(walls), "ms"}
	m["goodput_MBps"] = metric{float64(bytes) / 1e6 / wall.Seconds(), "MB/s"}
	m["reception_overhead"] = metric{overhead / float64(len(ok)), "ratio"}
	m["cpu_ms_per_MB"] = metric{median(cpus), "ms/MB"}
	m["alloc_MB_per_download"] = metric{median(allocs), "MB"}
	m["setup_s"] = metric{median(setups), "s"}
}

// layerMetrics is the per-layer table: each metric's value on one traced
// download. The reported value is the median over the traced downloads.
var layerMetrics = []struct {
	name, unit string
	of         func(l *layerSample) float64
}{
	{"core.setup_session_ms", "ms", func(l *layerSample) float64 { return ms(l.setupSess) }},
	{"client.setup_ms", "ms", func(l *layerSample) float64 { return ms(l.setupCli) }},
	{"service.emit_self_ms", "ms", func(l *layerSample) float64 { return ms(l.emit) }},
	{"codec.encode_ms", "ms", func(l *layerSample) float64 { return ms(l.encode) }},
	{"core.frame_ms", "ms", func(l *layerSample) float64 { return ms(max(l.frame-l.encode, 0)) }},
	{"service.pace_ratio", "ratio", func(l *layerSample) float64 { return l.paceRatio }},
	{"service.catchup_rounds", "count", func(l *layerSample) float64 { return float64(l.catchup) }},
	{"service.debt_dropped", "count", func(l *layerSample) float64 { return float64(l.debtDropped) }},
	{"transport.send_ms", "ms", func(l *layerSample) float64 { return ms(l.send) }},
	{"transport.send_batches", "count", func(l *layerSample) float64 { return float64(l.sendBatches) }},
	{"transport.pkts_per_send_batch", "count", func(l *layerSample) float64 { return ratio(l.sendPkts, l.sendBatches) }},
	{"transport.recv_wait_ms", "ms", func(l *layerSample) float64 { return ms(l.recvWait) }},
	{"transport.recv_batches", "count", func(l *layerSample) float64 { return float64(l.recvBatches) }},
	{"transport.pkts_per_recv_batch", "count", func(l *layerSample) float64 { return ratio(l.recvPkts, l.recvBatches) }},
	{"transport.rx_loss_ratio", "ratio", func(l *layerSample) float64 { return l.rxLoss }},
	{"transport.sent_per_accepted", "ratio", func(l *layerSample) float64 { return l.sentPerAccepted }},
	{"client.intake_ms", "ms", func(l *layerSample) float64 { return ms(l.intake) }},
	{"client.intake_self_ms", "ms", func(l *layerSample) float64 { return ms(max(l.intake-l.decodeAdd, 0)) }},
	{"codec.decode_ms", "ms", func(l *layerSample) float64 { return ms(l.decodeAdd + l.decodeSource) }},
	{"codec.released", "count", func(l *layerSample) float64 { return float64(l.released) }},
	{"core.file_ms", "ms", func(l *layerSample) float64 { return ms(l.file) }},
	{"client.duplicates", "count", func(l *layerSample) float64 { return float64(l.duplicates) }},
	{"client.corrupt", "count", func(l *layerSample) float64 { return float64(l.corrupt) }},
	{"core.cache_hit_ratio", "ratio", func(l *layerSample) float64 {
		return ratio(int(l.cacheHits), int(l.cacheHits+l.cacheMisses))
	}},
	{"core.cache_misses", "count", func(l *layerSample) float64 { return float64(l.cacheMisses) }},
	{"bench.budget_ratio", "ratio", func(l *layerSample) float64 { return float64(l.budget) / float64(l.wall) }},
}

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer fills in the per-layer metrics: the table above, and the two
// bench.* rows that need the untraced phase as well.
func perLayer(m map[string]metric, untraced, traced []sample) {
	vs := make([]float64, len(traced))
	for _, lm := range layerMetrics {
		for i, s := range traced {
			vs[i] = lm.of(s.lay)
		}
		m[lm.name] = metric{median(vs), lm.unit}
	}
	var walls []float64
	for _, s := range untraced {
		walls = append(walls, ms(s.wall))
	}
	for i, s := range traced {
		vs[i] = ms(s.lay.wall)
	}
	m["bench.download_ms_p90"] = metric{stats.NewCDF(walls).Quantile(0.90), "ms"}
	m["bench.trace_overhead_ratio"] = metric{median(vs) / median(walls), "ratio"}
}

// The metric names of BENCHMARK.json, which a test holds these lists to.
var (
	endToEndMetrics = []string{
		"download_ms_p50", "goodput_MBps", "reception_overhead", "cpu_ms_per_MB",
		"alloc_MB_per_download", "setup_s",
	}
	perLayerMetrics = func() []string {
		names := []string{"bench.download_ms_p90", "bench.trace_overhead_ratio"}
		for _, lm := range layerMetrics {
			names = append(names, lm.name)
		}
		return names
	}()
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics refuses a result that is vacuous or unreadable: every metric
// the run was asked for must be there, and nothing else, each a finite
// number under a well-formed name.
func checkMetrics(m map[string]metric, want []string) error {
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(m), len(want))
	}
	for _, name := range want {
		v, ok := m[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is missing", name)
		case !metricName.MatchString(name):
			return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// printRecord prints every metric by name with its unit, then the result
// object on a line of its own.
func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "\n== %s  (N=%d untraced, %d traced downloads; %d attempted, %d failed)\n",
		rec.Workload, rec.N, rec.TracedN, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no layer prefix) first.
		if di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], "."); di != dj {
			return dj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
	line, _ := json.Marshal(rec.result) // a map of plain structs cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
