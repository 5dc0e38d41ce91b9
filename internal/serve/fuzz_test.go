package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// FuzzRequest drives arbitrary bodies through Handler: every body is
// answered 200 or 400, never a 5xx or a panic; a 400 carries
// {"error": ...} and a 200 carries exactly one of "check" or
// "analyze". The 100 ms maximum deadline keeps each analysis short.
func FuzzRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add(tc.path == "/analyze", []byte(tc.body))
	}
	// README's serving example.
	f.Add(false, []byte(`{
  "source": "let t0 = (if b0 then 1 else 2) in t0 + 1",
  "symbolic": true,
  "env": {"b0": "bool"},
  "deadline": "2s"
}`))
	drain, err := os.ReadFile("testdata/drain_request.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, drain)

	h := New(Options{MaxDeadline: 100 * time.Millisecond}).Handler()
	f.Fuzz(func(t *testing.T, analyze bool, body []byte) {
		path := "/check"
		if analyze {
			path = "/analyze"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("400 without an error message: %s", rec.Body.Bytes())
			}
		case http.StatusOK:
			var r Response
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				t.Fatalf("200 body does not decode: %v: %s", err, rec.Body.Bytes())
			}
			if (r.Check == nil) == (r.Analyze == nil) {
				t.Fatalf("200 must carry exactly one of check or analyze: %s", rec.Body.Bytes())
			}
		default:
			t.Fatalf("%s %q = %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
	})
}
