// Command perfbench is the repository benchmark: it runs one workload for a
// fixed wall-clock budget, checks every output it produces, and prints the
// metrics named in BENCHMARK.json, ending with one JSON result line.
//
//	perfbench --workload sim-mesh64 --seed 7 --seconds 25 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with all tracing
// off. With --trace 1 it instead runs the workload half untraced and half
// under benchmark-side spans (the difference is the tracing overhead),
// then times every layer's public calls from outside (the layer ledger),
// and writes the spans as a Chrome trace under --out.
//
// --smoke shrinks every workload to a tiny length; --workload all runs the
// four workloads in turn and prints a result line for each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*env) (*measured, error)
}{
	{"sim-mesh64", runMesh},
	{"figures", runFigures},
	{"serve-estimate-uncached", runServeUncached},
	{"serve-mixed-cached", runServeMixed},
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	root     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	h := hostRecord(o.root)
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)
	for _, name := range names {
		res, err := runOne(o, name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall-clock seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a tiny length")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the span file is written to")
	fs.StringVar(&o.root, "root", ".", "repository checkout the benchmark runs in")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.workload == "all" {
		return o, nil
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown --workload %q", o.workload)
}

// runOne runs one workload and turns its measurements into a result.
func runOne(o options, name string, stdout io.Writer) (*result, error) {
	e := newEnv(o)
	var runner func(*env) (*measured, error)
	for _, w := range workloads {
		if w.name == name {
			runner = w.run
		}
	}
	m, err := runner(e)
	if err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	if o.trace {
		l, err := runLedger(e, m)
		if err != nil {
			return nil, err
		}
		for k, v := range l {
			metrics[k] = metric{Value: v, Unit: perLayerUnits[k]}
		}
		path := filepath.Join(o.out, "perfbench-trace-"+name+".json")
		self, err := e.spans.write(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", e.spans.tr.Len(), path)
		printSelf(stdout, self)
	} else {
		for k, v := range m.endToEnd() {
			metrics[k] = metric{Value: v, Unit: endToEndUnits[k]}
		}
	}
	res := &result{
		Correct:   e.tally.failed.Load() == 0,
		Attempted: e.tally.attempted.Load(),
		Failed:    e.tally.failed.Load(),
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	printTable(stdout, name, res, e.tally.notes())
	fmt.Fprintf(stdout, "  ops/s per pass: %.4g\n", m.rates)
	fmt.Fprintf(stdout, "  p50 ms per pass: %.4g\n  p99 ms per pass: %.4g\n", m.p50s, m.p99s)
	if len(m.lateMs) > 0 {
		fmt.Fprintf(stdout, "  generator lateness p50 %.4g ms, p99 %.4g ms over %d requests\n",
			quantile(m.lateMs, 0.5), quantile(m.lateMs, 0.99), len(m.lateMs))
	}
	return res, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and perLayerUnits name every metric the benchmark prints,
// with its unit; BENCHMARK.json declares the same sets (a test holds the
// two in step).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"p50_ms":        "ms",
	"p99_ms":        "ms",
	"allocs_per_op": "count",
	"bytes_per_op":  "B",
	"live_heap_mb":  "MB",
}

var perLayerUnits = map[string]string{
	"sim.new_us":                 "us",
	"sim.run_ms":                 "ms",
	"sim.events":                 "count",
	"sim.gc_cycles":              "count",
	"sim.gc_pause_ms":            "ms",
	"sim.spans_overhead_ratio":   "ratio",
	"sim.shards2_speedup":        "ratio",
	"experiments.points":         "count",
	"experiments.busy_ratio":     "ratio",
	"experiments.model_err_pct":  "%",
	"spec.parse_us":              "us",
	"spec.hash_us":               "us",
	"spec.model_us":              "us",
	"core.estimate_us":           "us",
	"cli.point_us":               "us",
	"cli.encode_us":              "us",
	"optimizer.solve_us":         "us",
	"optimizer.evals":            "count",
	"serve.server_p50_ms":        "ms",
	"serve.server_p99_ms":        "ms",
	"serve.transport_ms":         "ms",
	"serve.cache_hit_ratio":      "ratio",
	"serve.l1_hit_ratio":         "ratio",
	"serve.cache_bytes":          "B",
	"serve.inflight_max":         "count",
	"bench.gen_late_p99_ms":      "ms",
	"bench.tracing_overhead_pct": "%",
}

func init() {
	for _, id := range figureIDs {
		perLayerUnits["experiments."+id+"_s"] = "s"
	}
}

// printTable writes every metric by name with its unit, then the failure
// notes, so a reader sees the run without parsing the JSON line.
func printTable(w io.Writer, name string, res *result, notes []string) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "== %s\n", name)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	rate := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "  %-28s %14.6g (%d of %d failed)\n", "error_rate", rate, res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Fprintf(w, "  FAIL %s\n", n)
	}
}

// hostRecord stamps a result with the machine and code it was measured on.
func hostRecord(root string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
