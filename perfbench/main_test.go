package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"lognic/internal/obs"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func declared(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// smokeResults runs every workload in smoke mode and returns the result
// line of each, in workload order.
func smokeResults(t *testing.T, trace string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "all", "--smoke", "--seconds", "0.4", "--trace", trace,
		"--root", "..", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, stderr.String())
	}
	var out []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			out = append(out, r)
		}
	}
	if len(out) != len(workloads) {
		t.Fatalf("got %d result lines, want %d:\n%s", len(out), len(workloads), stdout.String())
	}
	return out
}

func checkNames(t *testing.T, what string, r result, want map[string]string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
	}
	var got, missing []string
	for name, m := range r.Metrics {
		if want[name] != m.Unit {
			got = append(got, name+" ["+m.Unit+"]")
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(got)
	sort.Strings(missing)
	if len(got) > 0 || len(missing) > 0 {
		t.Errorf("%s: undeclared or mis-united metrics %v; declared but not printed %v", what, got, missing)
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs all four workloads in smoke
// mode, untraced and traced, and holds the printed metric names and units
// to the sets BENCHMARK.json declares.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Fatalf("BENCHMARK.json workload %d is %q; the program runs %v", i, w.Name, workloads)
		}
	}
	e2e, layers := declared(spec.EndToEnd), declared(spec.PerLayer)
	for i, r := range smokeResults(t, "0") {
		checkNames(t, workloads[i].name+" untraced", r, e2e)
	}
	for i, r := range smokeResults(t, "1") {
		checkNames(t, workloads[i].name+" traced", r, layers)
	}
}

// TestCorruptedDigestIsAFailure regenerates a figure against its committed
// golden digest, then against a corrupted copy: the first must pass, the
// second must count as a failed operation.
func TestCorruptedDigestIsAFailure(t *testing.T) {
	e := newEnv(options{seed: 1, root: ".."})
	fs, err := loadFigures(e)
	if err != nil {
		t.Fatal(err)
	}
	fs.gens = fs.gens[:1] // fig5: analytical, so cheap at golden scale
	fs.pass(e, fs.opts, nil)
	if e.tally.failed.Load() != 0 || e.tally.attempted.Load() != 1 {
		t.Fatalf("golden fig5: attempted %d, failed %d; notes %v", e.tally.attempted.Load(), e.tally.failed.Load(), e.tally.notes())
	}
	fs.want["fig5"] = strings.Repeat("0", 64)
	fs.pass(e, fs.opts, nil)
	if e.tally.failed.Load() != 1 || len(e.tally.notes()) != 1 {
		t.Fatalf("corrupted digest: failed %d, notes %v; want one failure", e.tally.failed.Load(), e.tally.notes())
	}
}

// fakeClock advances only when the open loop sleeps or a request runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) spend(d time.Duration) func(int) {
	return func(int) { c.t = c.t.Add(d) }
}

// TestOpenLoopLateness checks the open loop's accounting on a fake clock:
// requests are due every 1ms; when each takes 3ms the generator falls 2ms
// further behind per request and every latency counts from the due time;
// when each takes 0.5ms it is never late.
func TestOpenLoopLateness(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name      string
		service   float64
		late, lat func(k int) float64
		elapsedMs float64
	}{
		{"slow", 3, func(k int) float64 { return 2 * float64(k) }, func(k int) float64 { return 2*float64(k) + 3 }, 15},
		{"fast", 0.5, func(int) float64 { return 0 }, func(int) float64 { return 0.5 }, 4.5},
	} {
		c := &fakeClock{t: time.Unix(1000, 0)}
		ol := openLoop{rate: 1000, n: 5, workers: 1, now: c.now, sleep: c.sleep}
		late, lat, elapsed := ol.run(c.spend(ms(tc.service)))
		for k := 0; k < 5; k++ {
			if late[k] != tc.late(k) || lat[k] != tc.lat(k) {
				t.Errorf("%s: request %d late %vms latency %vms, want %vms and %vms", tc.name, k, late[k], lat[k], tc.late(k), tc.lat(k))
			}
		}
		if elapsed != ms(tc.elapsedMs) {
			t.Errorf("%s: elapsed %v, want %vms", tc.name, elapsed, tc.elapsedMs)
		}
	}
}

// TestSelfTime checks self time against hand-computed overlaps: the
// parent's two children overlap each other and one runs past its end.
func TestSelfTime(t *testing.T) {
	spans := []obs.Span{
		{Cat: "a", SpanID: "1", Start: 0, Dur: 10},
		{Cat: "b", SpanID: "2", ParentID: "1", Start: 1, Dur: 3},
		{Cat: "b", SpanID: "3", ParentID: "1", Start: 2, Dur: 3},
		{Cat: "c", SpanID: "4", ParentID: "1", Start: 8, Dur: 5},
	}
	self, layers := selfTimes(spans)
	if self["1"] != 4 || layers["a"] != 4 || layers["b"] != 6 || layers["c"] != 5 {
		t.Fatalf("self %v layers %v; want parent 4, a 4, b 6, c 5", self, layers)
	}
}

// TestHistQuantile reads a registry histogram the way the serve ledger
// does: ranks interpolate inside their bucket, and other endpoints' series
// are ignored.
func TestHistQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", "", []float64{1, 2, 4}, obs.Labels{"endpoint": "estimate"})
	other := reg.Histogram("lat", "", []float64{1, 2, 4}, obs.Labels{"endpoint": "simulate"})
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	other.Observe(10)
	snaps := reg.Gather()
	for _, tc := range []struct{ q, want float64 }{{0.25, 1}, {0.5, 1.5}, {0.75, 2}, {1, 4}} {
		if got := histQuantile(snaps, "lat", "estimate", tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
}
