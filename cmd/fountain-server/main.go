// Command fountain-server serves files as digital fountains over UDP. One
// data socket multiplexes every session (clients subscribe to a specific
// session id, or to all of them), and one control socket answers catalog
// and session-info requests (the paper's "UDP unicast thread which provides
// control information"). Repair packets of every codec are produced
// lazily behind a shared bounded cache, so one server can carry many large
// files.
//
// Usage:
//
//	fountain-server -file software.bin -file patch.bin \
//	                -data 127.0.0.1:9000 -control 127.0.0.1:9001 \
//	                -layers 4 -rate 2048 -codec cauchy -cache 67108864
//
// Each -file becomes its own session: the first gets session id -session,
// the next -session+1, and so on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/evtrace"
	"repro/internal/service"
	"repro/internal/transport"
)

type fileList []string

func (f *fileList) String() string     { return fmt.Sprint(*f) }
func (f *fileList) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var files fileList
	var (
		dataAddr = flag.String("data", "127.0.0.1:9000", "data socket address")
		ctrlAddr = flag.String("control", "127.0.0.1:9001", "control socket address")
		layers   = flag.Int("layers", 4, "multicast layers")
		rate     = flag.Int("rate", 2048, "base-layer rate per session, packets/second")
		codec    = flag.String("codec", "tornado-a", strings.Join(core.CodecNames(), "|"))
		pktLen   = flag.Int("pkt", 500, "payload bytes per packet")
		seed     = flag.Int64("seed", 1998, "graph seed")
		baseID   = flag.Uint("session", 0xDF98, "session id of the first file (subsequent files increment)")
		phase    = flag.Int("phase", 0, "carousel start round, advertised to clients (mirrors of one file stagger theirs, §8)")
		cacheB   = flag.Int64("cache", 64<<20, "shared lazy-encoding cache budget, bytes")
		statsSec = flag.Int("stats", 30, "seconds between stats lines (0 = never)")
		metricsA = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics (empty = off)")
		traceOn  = flag.Bool("trace", false, "start with the flight recorder enabled (toggle later via /debug/evtrace/enable|disable on -metrics-addr)")
		traceBuf = flag.Int("trace-buf", 1<<14, "flight-recorder ring capacity per scheduler shard, events")
		maxSess  = flag.Int("max-sessions", 0, "session registry cap (0 = unlimited)")
		maxSubs  = flag.Int("max-subs", 0, "distinct subscriber address cap (0 = unlimited)")
		maxPPS   = flag.Int("max-pps", 0, "per-subscriber packets/second cap (0 = uncapped)")
		evictN   = flag.Int("evict-after", 8, "consecutive write errors before a subscriber is evicted")
	)
	flag.Var(&files, "file", "file to distribute (repeatable)")
	flag.Parse()
	if len(files) == 0 {
		log.Fatal("fountain-server: at least one -file is required")
	}
	// Session ids are uint16 and 0xFFFF is the subscription wildcard; the
	// per-file increment must stay below it.
	if *baseID+uint(len(files))-1 > 0xFFFE {
		log.Fatalf("fountain-server: -session %#x + %d files exceeds the max session id 0xFFFE", *baseID, len(files))
	}

	codecID, err := core.CodecByName(*codec)
	if err != nil {
		log.Fatalf("fountain-server: %v", err)
	}

	udp, err := transport.NewUDPServer(*dataAddr, *layers)
	if err != nil {
		log.Fatal(err)
	}
	defer udp.Close()
	udp.SetLimits(transport.UDPLimits{
		MaxSubscribers: *maxSubs,
		EvictAfter:     *evictN,
		MaxPPS:         *maxPPS,
		Log:            log.Printf,
	})

	// The flight recorder is always compiled in and always attached — the
	// send path pays one predictable branch per site while it is disabled.
	// -trace starts it recording; the /debug/evtrace endpoints toggle and
	// dump it at runtime.
	rec := evtrace.New(evtrace.Config{Shards: runtime.GOMAXPROCS(0), ShardSize: *traceBuf})
	if *traceOn {
		rec.Enable()
	}

	svc := service.New(udp, service.Config{CacheBytes: *cacheB, BaseRate: *rate, MaxSessions: *maxSess, Trace: rec})
	defer svc.Close()
	// One registry carries both layers' series: the service registered its
	// own at construction; the transport adds its socket-level counters.
	udp.RegisterMetrics(svc.Metrics())
	if *metricsA != "" {
		msrv, err := diag.Serve("fountain-server", *metricsA, svc.Metrics(), rec)
		if err != nil {
			log.Fatal(err)
		}
		defer msrv.Close()
	}

	for i, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Codec = codecID
		cfg.Layers = *layers
		cfg.PacketLen = *pktLen
		cfg.Seed = *seed + int64(i)
		cfg.Session = uint16(*baseID) + uint16(i)
		sess, err := svc.AddDataPhased(data, cfg, *rate, *phase)
		if err != nil {
			log.Fatal(err)
		}
		// A rateless mirror needs no phase coordination; its phase is only
		// an arbitrary distinct stream start.
		fmt.Printf("fountain-server: session %#x %s (%d bytes, %s, phase=%d, lazy=%v)\n",
			cfg.Session, file, len(data), core.DescribeCodec(sess.Info()), *phase, sess.Lazy())
	}

	ctrl, stopCtrl, err := transport.ServeControlFunc(*ctrlAddr, svc.HandleControl)
	if err != nil {
		log.Fatal(err)
	}
	defer stopCtrl()
	fmt.Printf("fountain-server: %d sessions data=%s control=%s layers=%d rate=%d sched-shards=%d\n",
		len(files), udp.Addr(), ctrl, *layers, *rate, svc.Stats().Shards)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *statsSec > 0 {
		go func() {
			t := time.NewTicker(time.Duration(*statsSec) * time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s := svc.Stats()
					fmt.Printf("fountain-server: sessions=%d pkts=%d bytes=%d errs=%d cache=%d/%d (peak %d) hit/miss=%d/%d\n",
						s.Sessions, s.PacketsSent, s.BytesSent, s.SendErrors,
						s.CacheUsed, svc.Cache().Cap(), s.CachePeak, s.CacheHits, s.CacheMisses)
				}
			}
		}()
	}
	<-ctx.Done()
	// Graceful drain: stop admitting sessions, let every in-flight round
	// finish, join the shard workers — then tear the sockets down. Clients
	// mid-download lose nothing they can't re-harvest from a mirror.
	fmt.Println("fountain-server: draining (no new sessions, finishing in-flight rounds)")
	svc.Drain()
	s := svc.Stats()
	h := udp.Hardening()
	fmt.Printf("fountain-server: drained; pkts=%d bytes=%d errs=%d evictions=%d refused-joins=%d rate-dropped=%d\n",
		s.PacketsSent, s.BytesSent, s.SendErrors, h.Evictions, h.RefusedJoins, h.RateDropped)
}
