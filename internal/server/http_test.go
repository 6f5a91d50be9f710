package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/securejoin"
	"repro/internal/wire"
)

// scrape GETs a URL and returns status and body.
func scrape(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// metricValue extracts one sample line ("<series> <value>") from an
// exposition body; series includes any label set, e.g.
// `sj_revealed_pairs{table="Employees"}`.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, text)
	return 0
}

// TestMetricsEndpointAfterPrefilteredJoin is the end-to-end
// observability check: a prefiltered join over the wire must surface as
// non-zero join-latency histogram samples, decrypted-row counts and
// leakage gauges on the live /metrics endpoint, and /healthz must
// report ready with the stored tables.
func TestMetricsEndpointAfterPrefilteredJoin(t *testing.T) {
	srv := New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	uploadIndexedTestTables(t, c)

	results, revealed, err := c.JoinWith("Teams", "Employees",
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
		client.JoinOpts{Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || revealed == 0 {
		t.Fatalf("join returned %d rows, %d revealed pairs; need both non-zero", len(results), revealed)
	}

	status, health, _ := scrape(t, "http://"+maddr+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", status)
	}
	var h wire.HealthInfo
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, health)
	}
	if !h.Ready || h.Tables != 2 {
		t.Fatalf("/healthz = %+v, want ready with 2 tables", h)
	}

	status, text, hdr := scrape(t, "http://"+maddr+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(text, "# TYPE sj_join_seconds histogram") {
		t.Fatal("join latency histogram not declared in exposition")
	}
	if v := metricValue(t, text, "sj_join_seconds_count"); v < 1 {
		t.Fatalf("sj_join_seconds_count = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "sj_joins_completed_total"); v < 1 {
		t.Fatalf("sj_joins_completed_total = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "sj_rows_decrypted_total"); v < 1 {
		t.Fatalf("sj_rows_decrypted_total = %v, want >= 1", v)
	}
	if v := metricValue(t, text, `sj_revealed_pairs{table="Employees"}`); v < 1 {
		t.Fatalf("revealed-pairs gauge = %v, want >= 1", v)
	}
	if v := metricValue(t, text, `sj_server_request_seconds_count{type="join"}`); v < 1 {
		t.Fatalf("join request latency count = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "sj_server_frames_out_total"); v < 1 {
		t.Fatalf("sj_server_frames_out_total = %v, want >= 1", v)
	}
}

// TestHealthzReportsDraining: once the server begins shutting down the
// probe flips to 503 so load balancers stop routing to it.
func TestHealthzReportsDraining(t *testing.T) {
	srv := New(nil)
	h := srv.HealthzHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("before close: status %d, want 200", rec.Code)
	}

	srv.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("after close: status %d, want 503", rec.Code)
	}
	var info wire.HealthInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Ready {
		t.Fatal("draining server reports ready")
	}
}
