package main

import (
	"fmt"
	"runtime"
	"time"

	"lognic/internal/obs"
	"lognic/internal/sim"
	"lognic/internal/simtest"
)

// The sim-mesh64 workload: serial sim.Run on the 64-tenant microservice
// mesh at 70% load, tracing off. Almost all of its time is the event
// engine — heap, handlers, ring queues and the allocation path.
const (
	meshTenants  = 64
	meshLoad     = 0.7
	meshDuration = 0.001  // simulated seconds per pass (~1M events)
	meshProbe    = 0.0003 // simulated seconds per ledger probe run
	meshSmoke    = 0.00005
)

func (e *env) meshDuration(full float64) float64 {
	if e.o.smoke {
		return meshSmoke
	}
	return full
}

func runMesh(e *env) (*measured, error) {
	m := &measured{}
	st := setupTimer[sim.Config]{n: 4, build: func() (sim.Config, error) {
		cfg, err := sim.MeshConfig(meshTenants, meshLoad, e.o.seed, e.meshDuration(meshDuration))
		if err != nil {
			return cfg, err
		}
		_, err = sim.New(cfg)
		return cfg, err
	}, teardown: func(sim.Config) {}}
	cfg, err := st.before(m)
	if err != nil {
		return nil, err
	}

	// The warm-up pass counts the run's events through a metrics registry
	// and records the digest every timed pass must reproduce. The timed
	// passes run without the registry: an identical run, uninstrumented.
	events, ref, err := countedRun(cfg)
	if err != nil {
		return nil, err
	}
	e.tally.ok(1)
	// The engine's response latency is the host time it takes to advance
	// one progress window (sim.Config.Progress fires every 1024 events).
	// The hook writes into a slice sized up front, so it allocates nothing.
	windows := make([]float64, 0, int(events)/1024+4)
	var last time.Time
	cfg.Progress = func(sim.Progress) {
		now := time.Now()
		if !last.IsZero() {
			windows = append(windows, float64(now.Sub(last))/1e6)
		}
		last = now
	}
	err = e.timed(m, 3, func(sp *spans) (pass, error) {
		windows, last = windows[:0], time.Time{}
		root := sp.root("sim", "sim.Run")
		t0 := time.Now()
		res, err := sim.Run(cfg)
		wall := time.Since(t0).Seconds()
		root.end()
		if err != nil {
			return pass{}, fmt.Errorf("mesh run: %w", err)
		}
		e.tally.check("mesh digest", simtest.ResultDigest(res), ref)
		return pass{ops: events, secs: wall, p50: quantile(windows, 0.5), p99: quantile(windows, 0.99)}, nil
	})
	if err != nil {
		return nil, err
	}
	return m, st.after(e, m)
}

// countedRun runs cfg once with a metrics registry attached and returns
// the number of events it processed and its result digest.
func countedRun(cfg sim.Config) (float64, string, error) {
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := sim.Run(cfg)
	if err != nil {
		return 0, "", fmt.Errorf("counting run: %w", err)
	}
	for _, s := range reg.Gather() {
		if s.Name == "lognic_sim_events_total" && s.Value > 0 {
			return s.Value, simtest.ResultDigest(res), nil
		}
	}
	return 0, "", fmt.Errorf("counting run reported no lognic_sim_events_total")
}

// meshLedger times the engine's layer calls on a short mesh run: sim.New
// alone, a plain run, the same run with Config.Spans set, and the same run
// on two shards, whose digest must equal the serial one.
func meshLedger(e *env, out map[string]float64) error {
	cfg, err := sim.MeshConfig(meshTenants, meshLoad, e.o.seed, e.meshDuration(meshProbe))
	if err != nil {
		return err
	}
	var newUs []float64
	for i := 0; i < 5; i++ {
		sp := e.spans.root("sim", "sim.New")
		t0 := time.Now()
		_, err := sim.New(cfg)
		newUs = append(newUs, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.end()
		if err != nil {
			return err
		}
	}
	out["sim.new_us"] = median(newUs)

	events, ref, err := countedRun(cfg)
	if err != nil {
		return err
	}
	out["sim.events"] = events
	e.tally.ok(1)

	variants := []struct {
		name string
		set  func(*sim.Config)
	}{
		{"plain", func(*sim.Config) {}},
		{"spans", func(c *sim.Config) { c.Spans = obs.NewTracer(0) }},
		{"shards2", func(c *sim.Config) { c.Shards = 2 }},
	}
	const reps = 3
	walls := map[string][]float64{}
	var before, after runtime.MemStats
	for r := 0; r < reps; r++ {
		for _, v := range variants {
			c := cfg
			v.set(&c)
			if v.name == "plain" {
				runtime.ReadMemStats(&before)
			}
			sp := e.spans.root("sim", "sim.Run."+v.name)
			t0 := time.Now()
			res, err := sim.Run(c)
			walls[v.name] = append(walls[v.name], time.Since(t0).Seconds())
			sp.end()
			if v.name == "plain" {
				runtime.ReadMemStats(&after)
				out["sim.gc_cycles"] += float64(after.NumGC-before.NumGC) / reps
				out["sim.gc_pause_ms"] += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / reps
			}
			if err != nil {
				e.tally.fail("mesh %s run: %v", v.name, err)
				continue
			}
			e.tally.check("mesh "+v.name+" digest", simtest.ResultDigest(res), ref)
		}
	}
	plain := median(walls["plain"])
	out["sim.run_ms"] = plain * 1e3
	out["sim.spans_overhead_ratio"] = median(walls["spans"]) / plain
	out["sim.shards2_speedup"] = plain / median(walls["shards2"])
	return nil
}
