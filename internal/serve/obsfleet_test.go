package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"mix/internal/obs"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return resp, b.String()
}

// TestPrometheusScrape pins the exposition surface: the format query
// switches /metrics to the Prometheus text format with the right
// content type, HELP/TYPE lines, and the per-tenant RED series.
func TestPrometheusScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ladderRequest(2)
	req.Tenant = "acme"
	post(t, ts.URL+"/check", req)

	resp, body := getBody(t, ts.URL+"/metrics?format=prometheus")
	if resp.StatusCode != 200 {
		t.Fatalf("prometheus scrape = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.PromContentType)
	}
	for _, want := range []string{
		"# TYPE serve_requests counter\n",
		"serve_requests 1\n",
		"# TYPE serve_latency_ns histogram\n",
		"serve_latency_ns_bucket{le=\"+Inf\"} 1\n",
		"# TYPE serve_tenant_acme_requests counter\n",
		"serve_tenant_acme_requests 1\n",
		"serve_tenant_acme_errors 0\n",
		"serve_tenant_acme_latency_ns_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	// The default JSON schema is untouched.
	jresp, jbody := getBody(t, ts.URL+"/metrics")
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default scrape content type = %q", ct)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal([]byte(jbody), &snap); err != nil {
		t.Fatalf("default scrape is not the JSON schema: %v", err)
	}
}

// TestTenantREDMetrics pins the per-tenant series: requests count per
// tenant, errors count rejects and degradations, and the default
// tenant absorbs unnamed requests.
func TestTenantREDMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	named := ladderRequest(2)
	named.Tenant = "acme"
	post(t, ts.URL+"/check", named)
	post(t, ts.URL+"/check", named)
	bad := named
	bad.Source = "let let" // parse error: a 400, so an error for RED
	post(t, ts.URL+"/check", bad)
	post(t, ts.URL+"/check", ladderRequest(2)) // tenant "default"

	reg := srv.reg
	if v := reg.Counter("serve.tenant.acme.requests").Value(); v != 3 {
		t.Fatalf("acme requests = %d, want 3", v)
	}
	if v := reg.Counter("serve.tenant.acme.errors").Value(); v != 1 {
		t.Fatalf("acme errors = %d, want the one parse-error 400", v)
	}
	if v := reg.Histogram("serve.tenant.acme.latency.ns").Count(); v != 3 {
		t.Fatalf("acme latency count = %d, want 3", v)
	}
	if v := reg.Counter("serve.tenant.default.requests").Value(); v != 1 {
		t.Fatalf("default requests = %d, want 1", v)
	}
}

// TestTenantREDBoundedEviction pins the registry bound: past
// maxTenants the stalest tenant's series is evicted from the registry
// wholesale, so a tenant-per-request client cannot grow it without
// limit.
func TestTenantREDBoundedEviction(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1000, 0)
	red := newTenantRED(reg, func() time.Time { return now })
	red.observe("earliest", false, 100)
	for i := 0; i < maxTenants-1; i++ {
		now = now.Add(time.Millisecond)
		red.observe("t"+strconv.Itoa(i), false, 100)
	}
	if n := len(red.m); n != maxTenants {
		t.Fatalf("tenant map = %d entries, want full at %d", n, maxTenants)
	}
	now = now.Add(time.Millisecond)
	red.observe("newcomer", true, 100)
	if len(red.m) != maxTenants {
		t.Fatalf("tenant map grew past the bound: %d", len(red.m))
	}
	if _, ok := red.m["earliest"]; ok {
		t.Fatal("stalest tenant not evicted")
	}
	if v := reg.Counter("serve.tenant.earliest.requests").Value(); v != 0 {
		t.Fatalf("evicted tenant's registry series survives: %d", v)
	}
	if v := reg.Counter("serve.tenant.newcomer.errors").Value(); v != 1 {
		t.Fatalf("newcomer errors = %d, want 1", v)
	}
}

// TestTenantNameCannotCrossEvict pins the sanitization rule: a tenant
// name containing dots flattens to one path component, so evicting
// tenant "a" can never remove tenant "a.b"'s series.
func TestTenantNameCannotCrossEvict(t *testing.T) {
	reg := obs.NewRegistry()
	red := newTenantRED(reg, nil)
	red.observe("a.b", false, 100)
	if v := reg.Counter("serve.tenant.a_b.requests").Value(); v != 1 {
		t.Fatalf("dotted tenant series = %d under the flattened name, want 1", v)
	}
	if n := reg.RemovePrefix("serve.tenant.a."); n != 0 {
		t.Fatalf("prefix of tenant \"a\" removed %d of tenant \"a.b\"'s metrics", n)
	}
}

// TestFlightRecorder pins the always-on ring: every request lands in
// /debug/flight — rejects included — with tenant, verdict, and
// latency; the ring is bounded, keeping the newest entries.
func TestFlightRecorder(t *testing.T) {
	_, ts := newTestServer(t, Options{FlightSize: 3})

	first := ladderRequest(2)
	first.Tenant = "dropme"
	post(t, ts.URL+"/check", first) // will be overwritten by the next 3
	ok := ladderRequest(3)
	ok.Tenant = "acme"
	post(t, ts.URL+"/check", ok)
	post(t, ts.URL+"/check", ok) // verdict-cache hit
	bad := ok
	bad.Source = "let let"
	post(t, ts.URL+"/check", bad)

	resp, body := getBody(t, ts.URL+"/debug/flight")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/flight = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("flight content type = %q", ct)
	}
	var entries []FlightEntry
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var e FlightEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("flight row %q: %v", line, err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 3 {
		t.Fatalf("flight holds %d entries, want the ring bound of 3", len(entries))
	}
	if entries[0].Tenant != "acme" || entries[0].Status != 200 || entries[0].Verdict != "ok" || entries[0].Cached {
		t.Fatalf("entry 0 = %+v, want the first acme run", entries[0])
	}
	if !entries[1].Cached || entries[1].Verdict != "ok" {
		t.Fatalf("entry 1 = %+v, want the verdict-cache hit", entries[1])
	}
	if entries[2].Status != 400 || entries[2].Verdict != "" {
		t.Fatalf("entry 2 = %+v, want the 400 reject", entries[2])
	}
	for i, e := range entries {
		if e.LatencyNS <= 0 || e.TNs <= 0 || e.Kind != "core" {
			t.Fatalf("entry %d missing timing/kind: %+v", i, e)
		}
	}
}

// TestScrapesSurviveDrain pins the drain split: once draining, the
// analysis endpoints 503 and /healthz reports not-ready, but /metrics
// (both formats) and /debug/flight keep answering 200 — a draining
// daemon's last readings are exactly the ones worth scraping.
func TestScrapesSurviveDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	req := ladderRequest(2)
	req.Tenant = "acme"
	post(t, ts.URL+"/check", req)

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := post(t, ts.URL+"/check", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analysis during drain = %d, want 503", resp.StatusCode)
	}
	hz, _ := getBody(t, ts.URL+"/healthz")
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hz.StatusCode)
	}
	mj, jbody := getBody(t, ts.URL+"/metrics")
	if mj.StatusCode != 200 || !strings.Contains(jbody, "serve.requests") {
		t.Fatalf("JSON scrape during drain = %d", mj.StatusCode)
	}
	mp, pbody := getBody(t, ts.URL+"/metrics?format=prometheus")
	if mp.StatusCode != 200 || !strings.Contains(pbody, "serve_requests 1") {
		t.Fatalf("prometheus scrape during drain = %d:\n%s", mp.StatusCode, pbody)
	}
	// The drained-request rejections themselves are observable.
	if !strings.Contains(pbody, "serve_rejected_draining 1") {
		t.Fatalf("draining rejections missing from the scrape:\n%s", pbody)
	}
	fl, fbody := getBody(t, ts.URL+"/debug/flight")
	if fl.StatusCode != 200 || !strings.Contains(fbody, `"tenant":"acme"`) {
		t.Fatalf("flight dump during drain = %d:\n%s", fl.StatusCode, fbody)
	}
}
