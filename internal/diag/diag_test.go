package diag

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/metrics"
)

// TestHandlerRoutes: the one diagnostics mux serves the registry, toggles
// and dumps the recorder, serves pprof, and 404s anything else.
func TestHandlerRoutes(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("fountain_test_total", "a test counter").Add(7)
	rec := evtrace.New(evtrace.Config{Shards: 1, ShardSize: 16})
	srv := httptest.NewServer(Handler("diag-test", reg, rec))
	defer srv.Close()
	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %d, want %d", path, resp.StatusCode, wantCode)
		}
		return string(body)
	}
	if body := get("/metrics", 200); !strings.Contains(body, "fountain_test_total 7") {
		t.Fatalf("/metrics does not carry the registry:\n%s", body)
	}
	get("/debug/evtrace/enable", 200)
	if !rec.Enabled() {
		t.Fatal("/debug/evtrace/enable left the recorder off")
	}
	rec.Shard(0).Emit(evtrace.EvIntake, 1, 0, 0, 0, 1, 0)
	get("/debug/evtrace/disable", 200)
	if rec.Enabled() {
		t.Fatal("/debug/evtrace/disable left the recorder on")
	}
	events, err := evtrace.ReadBinary(strings.NewReader(get("/debug/evtrace", 200)))
	if err != nil || len(events) != 1 {
		t.Fatalf("dump: %d events, %v", len(events), err)
	}
	get("/debug/pprof/", 200)
	get("/nosuch", 404)
}
