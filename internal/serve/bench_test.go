package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkWarmRequest posts a verdict-cached ladder-10 request
// through the full HTTP handler, with the flight recorder off and on.
// The tenant RED series are charged in both: they are always on.
func BenchmarkWarmRequest(b *testing.B) {
	req := ladderRequest(10)
	req.Tenant = "bench"
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name       string
		flightSize int
	}{{"flight-off", -1}, {"flight-on", 0}} {
		b.Run(m.name, func(b *testing.B) {
			ts := httptest.NewServer(New(Options{FlightSize: m.flightSize}).Handler())
			defer ts.Close()
			post := func() {
				resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			post() // prime the verdict cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
