package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prague/internal/clock"
	"prague/internal/metrics"
	"prague/internal/slo"
)

func getWithAccept(t *testing.T, url, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return resp.Header.Get("Content-Type"), body
}

func TestMetricsContentNegotiation(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("actions_total").Add(5)
	s, err := New("127.0.0.1:0", reg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// Default: JSON snapshot.
	ct, body := getWithAccept(t, base+"/metrics", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("default body is not a snapshot: %v", err)
	}

	// ?format=prom: text exposition.
	ct, body = getWithAccept(t, base+"/metrics?format=prom", "")
	if ct != metrics.PromContentType {
		t.Fatalf("prom Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	if !strings.Contains(string(body), "prague_actions_total 5") {
		t.Fatalf("prom body missing series:\n%s", body)
	}

	// A Prometheus-style Accept header gets the text exposition too.
	ct, _ = getWithAccept(t, base+"/metrics", "text/plain;version=0.0.4")
	if ct != metrics.PromContentType {
		t.Fatalf("Accept text/plain Content-Type = %q", ct)
	}

	// An explicit JSON Accept (or a mixed header naming it) stays JSON.
	ct, _ = getWithAccept(t, base+"/metrics", "application/json, text/plain")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Accept application/json Content-Type = %q", ct)
	}

	// ?format=json overrides a prom Accept header.
	ct, _ = getWithAccept(t, base+"/metrics?format=json", "text/plain")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("format=json Content-Type = %q", ct)
	}
}

func TestSLOEndpoint(t *testing.T) {
	fc := clock.NewFake(time.Unix(1700000000, 0))
	reg := metrics.NewRegistry()
	tk := slo.NewTracker(reg, time.Second, slo.Targets{P99SRT: 100 * time.Millisecond}, nil)
	tk.Tick(fc.Now())
	reg.Histogram(metrics.HistSRT).Observe(3 * time.Millisecond)
	reg.Counter(metrics.CounterAdmitted).Inc()

	s, err := New("127.0.0.1:0", reg, nil, nil,
		func() slo.Report { return tk.Report(fc.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ct, body := getWithAccept(t, "http://"+s.Addr()+"/slo", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/slo Content-Type = %q", ct)
	}
	var rep slo.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/slo is not a report: %v\n%s", err, body)
	}
	if !rep.Enabled {
		t.Fatalf("/slo report disabled: %s", body)
	}
	if d := rep.SRT(); d.Count != 1 {
		t.Fatalf("/slo srt window = %+v", d)
	}
	if rep.P99TargetUS != 100_000 {
		t.Fatalf("/slo target = %d", rep.P99TargetUS)
	}
}

func TestSLOEndpointNilFn(t *testing.T) {
	s, err := New("127.0.0.1:0", metrics.NewRegistry(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body := getWithAccept(t, "http://"+s.Addr()+"/slo", "")
	var rep slo.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("nil-fn /slo body: %v\n%s", err, body)
	}
	if rep.Enabled {
		t.Fatal("nil-fn /slo reports enabled telemetry")
	}
}
