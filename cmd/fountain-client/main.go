// Command fountain-client downloads files from a fountain service over
// UDP: it discovers sessions via the control socket's catalog, subscribes
// to the data layers of the chosen session(s), adapts its subscription
// level at synchronization points, and writes each reconstructed file once
// its decoder reports completion.
//
// With repeated -server flags the client harvests the session from several
// mirrors at once (§8 "mirrored data"): every mirror's packets land in one
// decoder, loss is measured per mirror, and the subscription level follows
// the worst mirror. No mirror coordination is needed — staggered carousel
// phases (servers advertise theirs in the catalog) keep early duplicates
// near zero.
//
// Usage:
//
//	fountain-client -control 127.0.0.1:9001 -data 127.0.0.1:9000 -list
//	fountain-client -control ... -data ... -session 0xDF98 -out copy.bin
//	fountain-client -control ... -data ... -all -out download
//	fountain-client -control ... -server 10.0.0.1:9000 -server 10.0.0.2:9000 -session 0xDF98
//
// With neither -session nor -all, the server's default (lowest-id) session
// is fetched, as the one-session prototype did. -metrics-addr serves the
// server's diagnostics endpoints (/metrics, /debug/pprof/, /debug/evtrace)
// for the download, with each download socket's series, the kernel's queue
// and drop counts and the stray datagrams among them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/evtrace"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/transport"
)

type addrList []string

func (a *addrList) String() string     { return fmt.Sprint(*a) }
func (a *addrList) Set(s string) error { *a = append(*a, s); return nil }

func main() {
	var servers addrList
	var (
		ctrlAddr = flag.String("control", "127.0.0.1:9001", "server control address")
		dataAddr = flag.String("data", "127.0.0.1:9000", "server data address (ignored when -server is given)")
		out      = flag.String("out", "download.bin", "output file (suffixed with the session id under -all)")
		level    = flag.Int("level", 0, "initial subscription level")
		timeout  = flag.Duration("timeout", 10*time.Minute, "give up after this long")
		sessArg  = flag.String("session", "", "session id to fetch (e.g. 0xDF98); empty = server default")
		all      = flag.Bool("all", false, "fetch every session in the catalog concurrently")
		list     = flag.Bool("list", false, "print the catalog and exit")
		stats    = flag.Bool("stats", false, "print the server's stats snapshot and exit")
		statsIv  = flag.Duration("stats-interval", 0, "poll the server's stats during the download, printing deltas every interval (0 = off)")
		traceOut = flag.String("trace", "", "record the client intake path and write a flight-recorder dump here (suffixed with the session id under -all); analyze with fountain-trace")
		attempts = flag.Int("ctrl-attempts", 5, "control request attempts before giving up")
		ctrlTO   = flag.Duration("ctrl-timeout", 2*time.Second, "per-attempt control reply timeout")
		rejoinIv = flag.Duration("rejoin", 3*time.Second, "resubscribe to a mirror silent for this long (0 = never)")
		stall    = flag.Duration("stall", 45*time.Second, "abort when no mirror delivers anything for this long")
		metricsA = flag.String("metrics-addr", "", "serve Prometheus text metrics, pprof and flight-recorder dumps on this address while downloading (empty = off)")
	)
	flag.Var(&servers, "server", "mirror data address carrying the same session (repeatable)")
	flag.Parse()

	if *all && *sessArg != "" {
		log.Fatal("fountain-client: -all and -session are mutually exclusive")
	}
	ctrl, err := net.ResolveUDPAddr("udp", *ctrlAddr)
	if err != nil {
		log.Fatal(err)
	}
	if len(servers) == 0 {
		servers = addrList{*dataAddr}
	}
	mirrors := make([]*net.UDPAddr, len(servers))
	for i, s := range servers {
		if mirrors[i], err = net.ResolveUDPAddr("udp", s); err != nil {
			log.Fatal(err)
		}
	}

	// Control requests run through a bounded, jittered retry loop: a slow
	// or restarting server is probed a few more times, a dead one fails
	// fast instead of hanging the startup.
	policy := transport.RetryPolicy{Attempts: *attempts, Timeout: *ctrlTO}
	opts := dlOpts{level: *level, timeout: *timeout, rejoin: *rejoinIv, stall: *stall, trace: *traceOut}

	// Periodic control-plane stats polling: one poller for the whole process
	// (downloads of several sessions share the server), printing deltas so
	// an operator watches the server's rates, not its lifetime totals.
	if *statsIv > 0 && !*stats && !*list {
		stopPoll := make(chan struct{})
		defer close(stopPoll)
		go pollStats(ctrl, policy, *statsIv, stopPoll)
	}

	if *stats {
		reply, err := transport.RequestSessionInfoRetry(ctrl, proto.AppendStatsRequest(nil), policy)
		if err != nil {
			log.Fatal(err)
		}
		s, err := proto.ParseStats(reply)
		if err != nil {
			log.Fatal(err)
		}
		printStats(s)
		return
	}

	if *list || *all {
		reply, err := transport.RequestSessionInfoRetry(ctrl, proto.AppendCatalogRequest(nil), policy)
		if err != nil {
			log.Fatal(err)
		}
		catalog, err := proto.ParseCatalog(reply)
		if err != nil {
			log.Fatal(err)
		}
		if *list {
			fmt.Printf("fountain-client: %d sessions\n", len(catalog))
			for _, info := range catalog {
				fmt.Printf("  session %#04x codec=%s k=%d n=%d layers=%d rate=%d phase=%d file=%d bytes\n",
					info.Session, core.CodecName(info.Codec), info.K, info.N, info.Layers, info.BaseRate, info.Phase, info.FileLen)
			}
			return
		}
		if len(catalog) == 0 {
			log.Fatal("fountain-client: catalog is empty")
		}
		opts.reg, opts.rec = diagnostics(len(catalog), *traceOut != "", *metricsA)
		var wg sync.WaitGroup
		failed := make(chan error, len(catalog))
		for i, info := range catalog {
			wg.Add(1)
			go func(i int, info proto.SessionInfo) {
				defer wg.Done()
				name := fmt.Sprintf("%s.%04x", *out, info.Session)
				sopts := opts
				sopts.slot = i
				if opts.trace != "" {
					sopts.trace = fmt.Sprintf("%s.%04x", opts.trace, info.Session)
				}
				if err := download(info, mirrors, name, sopts); err != nil {
					failed <- fmt.Errorf("session %#x: %w", info.Session, err)
				}
			}(i, info)
		}
		wg.Wait()
		close(failed)
		nfail := 0
		for err := range failed {
			log.Print(err)
			nfail++
		}
		if nfail > 0 {
			log.Fatalf("fountain-client: %d of %d sessions failed", nfail, len(catalog))
		}
		return
	}

	hello := proto.AppendHello(nil)
	if *sessArg != "" {
		id, err := strconv.ParseUint(*sessArg, 0, 16)
		if err != nil {
			log.Fatalf("fountain-client: bad -session %q: %v", *sessArg, err)
		}
		hello = proto.AppendHelloFor(nil, uint16(id))
	}
	reply, err := transport.RequestSessionInfoRetry(ctrl, hello, policy)
	if err != nil {
		log.Fatal(err)
	}
	if id, nak := proto.ParseNak(reply); nak {
		if id == transport.SessionAny {
			log.Fatal("fountain-client: server carries no sessions")
		}
		log.Fatalf("fountain-client: server has no session %#x (try -list)", id)
	}
	info, err := proto.ParseSessionInfo(reply)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fountain-client: session %#x codec=%s k=%d n=%d layers=%d file=%d bytes (%d mirrors)\n",
		info.Session, core.CodecName(info.Codec), info.K, info.N, info.Layers, info.FileLen, len(mirrors))
	opts.reg, opts.rec = diagnostics(1, *traceOut != "", *metricsA)
	if err := download(info, mirrors, *out, opts); err != nil {
		log.Fatal(err)
	}
}

// diagnostics builds the process's metrics registry and flight recorder for
// n concurrent downloads (download i records into shard i) and, when addr
// is set, serves both on it the way fountain-server does. Without tracing
// or an address there is neither, and downloads pay nothing for them.
func diagnostics(n int, trace bool, addr string) (*metrics.Registry, *evtrace.Recorder) {
	if !trace && addr == "" {
		return nil, nil
	}
	rec := evtrace.New(evtrace.Config{Shards: n, ShardSize: 1 << 18})
	if trace {
		rec.Enable()
	}
	if addr == "" {
		return nil, rec
	}
	reg := metrics.NewRegistry()
	if _, err := diag.Serve("fountain-client", addr, reg, rec); err != nil {
		log.Fatal(err)
	}
	return reg, rec
}

// printStats renders a server stats snapshot for operators.
func printStats(s proto.StatsSnapshot) {
	state := "serving"
	if s.Draining == 1 {
		state = "draining"
	}
	fmt.Printf("fountain-server stats (%s):\n", state)
	fmt.Printf("  sessions=%d shards=%d subscribers=%d\n", s.Sessions, s.Shards, s.Subscribers)
	fmt.Printf("  data: packets=%d bytes=%d send-errors=%d\n", s.PacketsSent, s.BytesSent, s.SendErrors)
	fmt.Printf("  scheduler: rounds=%d catchup=%d debt-dropped=%d\n", s.RoundsEmitted, s.CatchupRounds, s.DebtDropped)
	fmt.Printf("  cache: used=%d peak=%d lookups=%d hits=%d misses=%d\n",
		s.CacheUsed, s.CachePeak, s.CacheLookups, s.CacheHits, s.CacheMisses)
	fmt.Printf("  transport: tx-packets=%d tx-bytes=%d\n", s.TxPackets, s.TxBytes)
}

// pollStats polls the server's control-plane stats every iv, printing the
// counter deltas between snapshots — the live view of what the server did
// while this client downloaded. The first reply prints as a baseline.
func pollStats(ctrl *net.UDPAddr, policy transport.RetryPolicy, iv time.Duration, stop <-chan struct{}) {
	var prev proto.StatsSnapshot
	have := false
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		reply, err := transport.RequestSessionInfoRetry(ctrl, proto.AppendStatsRequest(nil), policy)
		if err != nil {
			log.Printf("fountain-client: stats poll: %v", err)
			continue
		}
		s, err := proto.ParseStats(reply)
		if err != nil {
			log.Printf("fountain-client: stats poll: %v", err)
			continue
		}
		if have {
			fmt.Printf("fountain-client: server +%v: pkts=+%d bytes=+%d errs=+%d rounds=+%d catchup=+%d subs=%d sessions=%d\n",
				iv, s.PacketsSent-prev.PacketsSent, s.BytesSent-prev.BytesSent,
				s.SendErrors-prev.SendErrors, s.RoundsEmitted-prev.RoundsEmitted,
				s.CatchupRounds-prev.CatchupRounds, s.Subscribers, s.Sessions)
		} else {
			fmt.Printf("fountain-client: server baseline: pkts=%d bytes=%d errs=%d rounds=%d subs=%d sessions=%d\n",
				s.PacketsSent, s.BytesSent, s.SendErrors, s.RoundsEmitted, s.Subscribers, s.Sessions)
		}
		prev, have = s, true
	}
}

// dlOpts bundles the download loop's robustness knobs.
type dlOpts struct {
	level   int
	timeout time.Duration
	rejoin  time.Duration // resubscribe to a mirror silent this long
	stall   time.Duration // abort when every mirror is silent this long
	trace   string        // non-empty = write a flight-recorder dump here

	// The process's diagnostics (see diagnostics): the registry this
	// download's socket joins (nil = none), the recorder its engine
	// records into (nil = none), and the download's slot — its recorder
	// shard and its socket's source label.
	reg  *metrics.Registry
	rec  *evtrace.Recorder
	slot int
}

// download fetches one session from every mirror at once and writes the
// reconstructed file. Each concurrent download has its own socket —
// subscribed on every mirror — decoder, and congestion controllers; no
// server keeps state for any of them, and the mirrors never hear of each
// other.
func download(info proto.SessionInfo, mirrors []*net.UDPAddr, out string, o dlOpts) error {
	// The engine comes first: building it validates the descriptor, and no
	// buffer below may be sized from an unvalidated one. (cli is assigned
	// before the engine sees a packet, so before it can call back.)
	var cli *transport.UDPClient
	level := min(o.level, int(info.Layers)-1)
	eng, err := client.NewMultiSource(info, len(mirrors), level, func(l int) {
		if err := cli.SetLevel(l); err != nil {
			log.Printf("session %#x: subscription change failed: %v", info.Session, err)
		}
	})
	if err != nil {
		return err
	}
	cli, err = transport.NewUDPClientSession(mirrors, info.Session, level)
	if err != nil {
		return err
	}
	defer cli.Close()
	if o.reg != nil {
		cli.RegisterMetrics(o.reg, o.slot)
	}
	// Record the intake path (accepted packets, integrity drops, symbol
	// releases, completion) in wall-monotonic time for fountain-trace,
	// while the recorder is enabled.
	eng.SetTrace(o.rec.Shard(o.slot), 0)
	// Silent-mirror watchdog: a mirror that delivered nothing for a whole
	// rejoin interval may have crashed and restarted with an empty
	// membership table, so the subscriptions are re-sent (idempotent on a
	// healthy server). When every mirror stays silent past the stall bound
	// the download aborts instead of spinning until the global timeout.
	var rb transport.RecvBatch
	defer rb.Free()
	deadline := time.Now().Add(o.timeout)
	lastAny := time.Now()
	lastSeen := make([]int, len(mirrors))
	nextRejoin := time.Now().Add(o.rejoin)
	for !eng.Done() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", o.timeout)
		}
		_, err := cli.RecvBatch(&rb, 500*time.Millisecond)
		switch err {
		case nil:
			lastAny = time.Now()
			for i, pkt := range rb.Packets() {
				// Malformed or foreign packets are skipped (the engine
				// counts them); the loop condition re-checks Done.
				if done, _ := eng.HandlePacketFrom(rb.Source(i), pkt); done {
					break
				}
			}
		case transport.ErrClosed:
			return fmt.Errorf("receive socket closed mid-download")
		case transport.ErrTimeout:
			// Idle interval: fall through to the watchdogs.
		default:
			return err
		}
		if o.stall > 0 && time.Since(lastAny) > o.stall {
			return fmt.Errorf("no data from any of %d mirrors for %v", len(mirrors), o.stall)
		}
		if o.rejoin > 0 && time.Now().After(nextRejoin) {
			var silent []int
			for _, s := range eng.Sources() {
				st := eng.SourceStats(s)
				got := st.Received + st.Corrupt
				if got == lastSeen[s] {
					silent = append(silent, s)
				}
				lastSeen[s] = got
			}
			if len(silent) > 0 {
				if err := cli.Resubscribe(); err == nil {
					log.Printf("session %#x: mirrors %v silent for %v, resubscribed",
						info.Session, silent, o.rejoin)
				}
			}
			nextRejoin = time.Now().Add(o.rejoin)
		}
	}
	file, err := eng.File()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, file, 0o644); err != nil {
		return err
	}
	if o.trace != "" {
		// Concurrent downloads share the recorder: keep this session's events.
		var events []evtrace.Event
		for _, ev := range o.rec.Snapshot() {
			if ev.Sess == info.Session {
				events = append(events, ev)
			}
		}
		tf, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		werr := evtrace.WriteBinary(tf, events)
		if cerr := tf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace %s: %w", o.trace, werr)
		}
		fmt.Printf("fountain-client: wrote trace %s (%d events, %d overwritten)\n",
			o.trace, len(events), o.rec.Dropped())
	}
	eta, etaC, etaD := eng.Efficiency()
	fmt.Printf("fountain-client: wrote %s (%d bytes); loss=%.1f%% corrupt=%d eta=%.3f eta_c=%.3f eta_d=%.3f level=%d\n",
		out, len(file), 100*eng.MeasuredLoss(), eng.Corrupt(), eta, etaC, etaD, eng.Level())
	if len(mirrors) > 1 {
		for _, src := range eng.Sources() {
			st := eng.SourceStats(src)
			fmt.Printf("  mirror %d (%s): recv=%d distinct=%d dup=%d corrupt=%d loss=%.1f%% level=%d\n",
				src, mirrors[src], st.Received, st.Distinct, st.Duplicate, st.Corrupt, 100*st.Loss, st.Level)
		}
	}
	return nil
}
