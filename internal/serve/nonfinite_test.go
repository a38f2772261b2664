package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
)

// nonFiniteSpecs are the CI smoke spec with numbers that drive the model
// out of floating-point range: each estimate holds a NaN, which JSON
// cannot carry.
func nonFiniteSpecs(t testing.TB) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/smoke-spec.json")
	if err != nil {
		t.Fatal(err)
	}
	smoke := string(b)
	return map[string]string{
		"granularity=1.7e308": strings.Replace(smoke, `"granularity": "4KB"`, `"granularity": 1.7e308`, 1),
		"granularity=1e-320":  strings.Replace(smoke, `"granularity": "4KB"`, `"granularity": 1e-320`, 1),
		"ingress_bw=1.7e308":  strings.Replace(smoke, `"ingress_bw": "8Gbps"`, `"ingress_bw": 1.7e308`, 1),
	}
}

// A non-finite estimate is the spec's fault: 422 with a JSON error, not a
// 500 from the encoder.
func TestNonFiniteEstimateIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, spec := range nonFiniteSpecs(t) {
		resp, body := post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(spec))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422: %s", name, resp.StatusCode, body)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "not finite") {
			t.Errorf("%s: error body %q (%v)", name, body, err)
		}
	}
}

// The same request as an async job fails on its first attempt: retrying a
// deterministic evaluation only returns the same answer.
func TestNonFiniteJobFailsWithoutRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{JobMaxAttempts: 3})
	waitReady(t, ts.Client(), ts.URL)
	for name, spec := range nonFiniteSpecs(t) {
		code, v := submitJob(t, ts.Client(), ts.URL, "estimate", estimateBody(spec))
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, code)
		}
		done := pollJob(t, ts.Client(), ts.URL, v.ID)
		if done.State != "failed" || done.Attempts != 1 || !strings.Contains(done.Error, "not finite") {
			t.Errorf("%s: job %+v, want failed after 1 attempt with a non-finite error", name, done)
		}
	}
}
