package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"lognic/internal/cli"
	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/optimizer"
	"lognic/internal/spec"
)

// runLedger is the traced run's layer ledger: after the workload's own
// untraced and traced halves (which give the tracing overhead), it times
// calls into every layer's public functions from the benchmark, each under
// a span, on inputs generated from the seed. The ledger is the same on
// every workload, so a layer's figures compare across workloads.
func runLedger(e *env, m *measured) (map[string]float64, error) {
	out := map[string]float64{
		"bench.tracing_overhead_pct": m.overhead,
	}
	for _, step := range []func(*env, map[string]float64) error{
		modelLedger, meshLedger, figuresLedger, serveLedger,
	} {
		if err := step(e, out); err != nil {
			return nil, err
		}
	}
	for name := range perLayerUnits {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("ledger produced no %s", name)
		}
	}
	return out, nil
}

// ledgerItems is how many corpus specs the model-path ledger times.
func (e *env) ledgerItems(full int) int {
	if e.o.smoke {
		return full / 20
	}
	return full
}

// modelLedger times the request path's model layers call by call on the
// uncached workload's corpus: parse the spec document, hash it, build the
// model, estimate, build the CLI point result, encode it; and the
// optimizer's knob search on a subset.
func modelLedger(e *env, out map[string]float64) error {
	items, err := genCorpus(e.o.seed, e.ledgerItems(2000), estimateOnly)
	if err != nil {
		return err
	}
	names := []string{"spec.parse_us", "spec.hash_us", "spec.model_us", "core.estimate_us", "cli.point_us", "cli.encode_us"}
	samples := make(map[string][]float64, len(names))
	timeCall := func(parent *span, layer, name string, f func() error) bool {
		sp := parent.child(layer, name)
		t0 := time.Now()
		err := f()
		samples[name] = append(samples[name], float64(time.Since(t0).Nanoseconds())/1e3)
		sp.end()
		if err != nil {
			e.tally.fail("%s: %v", name, err)
			return false
		}
		return true
	}
	for i := range items {
		it := &items[i]
		root := e.spans.root("bench", "model path")
		var f spec.File
		var hash string
		var m core.Model
		var pt cli.PointResult
		var enc []byte
		ok := timeCall(root, "spec", "spec.parse_us", func() (err error) { f, err = spec.Parse(it.spec); return }) &&
			timeCall(root, "spec", "spec.hash_us", func() (err error) { hash, err = f.Hash(); return }) &&
			timeCall(root, "spec", "spec.model_us", func() (err error) { m, err = f.Model(); return }) &&
			timeCall(root, "core", "core.estimate_us", func() (err error) { _, err = m.Estimate(); return }) &&
			timeCall(root, "cli", "cli.point_us", func() (err error) { pt, err = cli.EstimatePoint(m); return }) &&
			timeCall(root, "cli", "cli.encode_us", func() (err error) { enc, err = json.Marshal(pt); return })
		root.end()
		if !ok {
			continue
		}
		// The parsed spec must hash like the generated one, and the point
		// must carry the offered load it was asked about.
		want, _ := it.file.Hash()
		e.tally.check("spec hash", hash, want)
		if pt.IngressBW != float64(it.file.Traffic.IngressBW) || len(enc) == 0 {
			e.tally.fail("cli point for %s: ingress %v, want %v", it.file.Name, pt.IngressBW, it.file.Traffic.IngressBW)
		} else {
			e.tally.ok(1)
		}
	}
	for _, n := range names {
		out[n] = median(samples[n])
	}

	goal, err := optimizer.GoalFromName("latency")
	if err != nil {
		return err
	}
	knobs := []optimizer.IntKnob{{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 8}}
	var solveUs, evals []float64
	for i := 0; i < len(items) && i < e.ledgerItems(200); i++ {
		m, err := items[i].file.Model()
		if err != nil {
			return err
		}
		sp := e.spans.root("optimizer", "optimizer.SolveKnobs")
		t0 := time.Now()
		sol, err := optimizer.SolveKnobs(m, goal, knobs, 0)
		solveUs = append(solveUs, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.end()
		if err != nil || sol.Evaluated < 1 {
			e.tally.fail("optimizer on %s: %v", items[i].file.Name, err)
			continue
		}
		e.tally.ok(1)
		evals = append(evals, float64(sol.Evaluated))
	}
	out["optimizer.solve_us"] = median(solveUs)
	out["optimizer.evals"] = median(evals)
	return nil
}

// serveLedger drives both serve configurations briefly while reading the
// daemon's metrics registry (the one its /metrics serves): the uncached
// closed loop gives the server-side latency (lognic_serve_request_seconds)
// and the transport share of the client's; the cached open loop gives the
// cache figures from final counters, the peak of the inflight gauge, and
// the generator's lateness.
func serveLedger(e *env, out map[string]float64) error {
	in, err := genUncached(e.o.seed)
	if err != nil {
		return err
	}
	u, err := in.start()
	if err != nil {
		return err
	}
	rep, err := u.stormPass(e, e.passDuration()/2, e.spans)
	if err == nil {
		u.checked.verify(e, u.d, e.spans)
		snaps := u.d.reg.Gather()
		p50 := histQuantile(snaps, "lognic_serve_request_seconds", "estimate", 0.5) * 1e3
		out["serve.server_p50_ms"] = p50
		out["serve.server_p99_ms"] = histQuantile(snaps, "lognic_serve_request_seconds", "estimate", 0.99) * 1e3
		if lat := rep.Latency["estimate"]; lat != nil {
			out["serve.transport_ms"] = lat.P50Ms - p50
		}
	}
	u.d.stop()
	if err != nil {
		return err
	}

	mi, err := genMixed(e.o.seed)
	if err != nil {
		return err
	}
	x, err := mi.start()
	if err != nil {
		return err
	}
	defer x.d.stop()
	g := startGaugePeak(x.d.reg, "lognic_serve_inflight")
	_, _, late, _ := x.openPass(e, e.passDuration()*3/4, e.spans)
	out["serve.inflight_max"] = g.finish()
	x.checked.verify(e, x.d, e.spans)
	snaps := x.d.reg.Gather()
	hits, l1 := value(snaps, "lognic_serve_cache_hits_total"), value(snaps, "lognic_serve_cache_l1_hits_total")
	lookups := hits + value(snaps, "lognic_serve_cache_misses_total")
	out["serve.cache_hit_ratio"] = hits / lookups
	out["serve.l1_hit_ratio"] = l1 / lookups
	out["serve.cache_bytes"] = value(snaps, "lognic_serve_cache_bytes")
	out["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	return nil
}

// value sums a counter's or gauge's series across label sets.
func value(snaps []obs.Snapshot, name string) float64 {
	var v float64
	for _, s := range snaps {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// histQuantile estimates the q-quantile of one endpoint's series of a
// histogram from its cumulative buckets, summed across the endpoint's
// series and interpolated linearly inside the bucket the rank falls in (as
// Prometheus's histogram_quantile does). A rank beyond the last finite
// bound reads as that bound.
func histQuantile(snaps []obs.Snapshot, name, endpoint string, q float64) float64 {
	var bounds []float64
	var cum []uint64
	var count uint64
	for _, s := range snaps {
		if s.Name != name || s.Labels["endpoint"] != endpoint {
			continue
		}
		if bounds == nil {
			bounds, cum = make([]float64, len(s.Buckets)), make([]uint64, len(s.Buckets))
		}
		for i, b := range s.Buckets {
			bounds[i] = b.UpperBound
			cum[i] += b.CumulativeCount
		}
		count += s.Count
	}
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	lo, prev := 0.0, 0.0
	for i, b := range bounds {
		if c := float64(cum[i]); c >= rank {
			return lo + (b-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = b, float64(cum[i])
	}
	return lo
}

// gaugePeak samples one gauge of a registry every 5 ms and keeps
// its maximum. It runs only in the traced ledger, never in a timed pass.
type gaugePeak struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func startGaugePeak(reg *obs.Registry, name string) *gaugePeak {
	g := &gaugePeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.max = math.Max(g.max, value(reg.Gather(), name))
			}
		}
	}()
	return g
}

// finish stops the sampling and returns the peak.
func (g *gaugePeak) finish() float64 {
	close(g.stop)
	<-g.done
	return g.max
}
