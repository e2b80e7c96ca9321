// Package diag serves a process's diagnostics port: Prometheus text
// metrics at /metrics, Go's pprof profiles under /debug/pprof/, and
// flight-recorder dumps and toggles under /debug/evtrace. fountain-server
// and fountain-client both serve it behind -metrics-addr.
package diag

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/evtrace"
	"repro/internal/metrics"
)

// Handler routes the diagnostics endpoints to reg and rec. Unknown paths
// get the mux's plain 404; name prefixes the log line of a failed dump.
func Handler(name string, reg *metrics.Registry, rec *evtrace.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/evtrace", func(w http.ResponseWriter, r *http.Request) {
		events := rec.Snapshot()
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			if err := evtrace.WriteChrome(w, events); err != nil {
				log.Printf("%s: evtrace dump: %v", name, err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="fountain.evtrace"`)
		if err := evtrace.WriteBinary(w, events); err != nil {
			log.Printf("%s: evtrace dump: %v", name, err)
		}
	})
	mux.HandleFunc("/debug/evtrace/enable", func(w http.ResponseWriter, r *http.Request) {
		rec.Enable()
		fmt.Fprintln(w, "tracing enabled")
	})
	mux.HandleFunc("/debug/evtrace/disable", func(w http.ResponseWriter, r *http.Request) {
		rec.Disable()
		fmt.Fprintln(w, "tracing disabled")
	})
	return mux
}

// Serve listens on addr and serves Handler(name, reg, rec) there in the
// background, printing where. Close the returned server to stop it.
func Serve(name, addr string, reg *metrics.Registry, rec *evtrace.Recorder) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: addr, Handler: Handler(name, reg, rec)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("%s: metrics endpoint: %v", name, err)
		}
	}()
	fmt.Printf("%s: metrics at http://%s/metrics (pprof at /debug/pprof/, trace dumps at /debug/evtrace)\n", name, ln.Addr())
	return srv, nil
}
