package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"
)

// fuzzPaths are the POST endpoints FuzzServeHandlers drives.
var fuzzPaths = []string{"/v1/estimate", "/v1/optimize", "/v1/simulate", "/v1/jobs"}

// FuzzServeHandlers sends arbitrary bodies, tenant names and traceparent
// headers to the evaluation endpoints of an untenanted and a tenanted
// server. Invariants: no panic; no 5xx other than the designed 503
// (draining, journal replay) and 504 (timeout); every 200 body is JSON
// whose numbers are all finite; and repeating a 200 returns the same
// bytes, from the cache on the untenanted server.
func FuzzServeHandlers(f *testing.F) {
	b, err := os.ReadFile("testdata/smoke-spec.json")
	if err != nil {
		f.Fatal(err)
	}
	smoke := string(b)
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	bodies := []string{
		`{"spec": ` + smoke + `}`,
		`{"spec": ` + smoke + `, "goal": "latency", "knobs": [{"vertex": "cores", "param": "parallelism", "lo": 1, "hi": 8}]}`,
		`{"spec": ` + smoke + `, "duration": 0.002, "seed": 1}`,
		`{"kind": "estimate", "request": {"spec": ` + smoke + `}}`,
	}
	for i, body := range bodies {
		f.Add(uint8(i), []byte(body), "", tp)
		f.Add(uint8(i|4), []byte(body), "t0", "")
	}
	for _, spec := range nonFiniteSpecs(f) {
		f.Add(uint8(0), []byte(estimateBody(spec)), "t1", tp)
		f.Add(uint8(3), []byte(`{"kind": "estimate", "request": `+estimateBody(spec)+`}`), "", "")
	}

	cfg := Config{MaxSimEvents: 20000, RequestTimeout: 2 * time.Second, JobsWorkers: 1, JobMaxAttempts: 1}
	plain := NewServer(cfg)
	cfg.TenantWeights = map[string]float64{"t0": 2, "t1": 1}
	tenanted := NewServer(cfg)
	f.Cleanup(plain.Close)
	f.Cleanup(tenanted.Close)
	handlers := []http.Handler{plain.Handler(), tenanted.Handler()}

	f.Fuzz(func(t *testing.T, sel uint8, body []byte, tenant, traceparent string) {
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		untenanted := sel&4 == 0
		h := handlers[1]
		if untenanted {
			h = handlers[0]
		}
		do := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set(tenantHeader, tenant)
			req.Header.Set("traceparent", traceparent)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		cold := do()
		switch code := cold.Code; {
		case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
			t.Fatalf("%s: status %d: %s", path, code, cold.Body.Bytes())
		case code != http.StatusOK:
			return
		}
		if err := finiteJSON(cold.Body.Bytes()); err != nil {
			t.Fatalf("%s: 200 body %q: %v", path, cold.Body.Bytes(), err)
		}
		if path == "/v1/jobs" {
			return // a repeat coalesces into the live job, whose view moves on
		}
		warm := do()
		if warm.Code != http.StatusOK || !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("%s: repeat answered %d %q, first answer %q", path, warm.Code, warm.Body.Bytes(), cold.Body.Bytes())
		}
		if untenanted && warm.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: repeat of a 200 missed the cache", path)
		}
	})
}

// finiteJSON reports whether b holds exactly one JSON value all of whose
// numbers are finite.
func finiteJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return walkNumbers(v)
}

func walkNumbers(v any) error {
	switch v := v.(type) {
	case json.Number:
		if f, err := strconv.ParseFloat(string(v), 64); err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("number %s is not finite", v)
		}
	case []any:
		for _, e := range v {
			if err := walkNumbers(e); err != nil {
				return err
			}
		}
	case map[string]any:
		for _, e := range v {
			if err := walkNumbers(e); err != nil {
				return err
			}
		}
	}
	return nil
}
