package sim

import (
	"reflect"
	"testing"

	"lognic/internal/obs"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// TestProgressHookObserves verifies the Progress hook fires on the
// context-poll cadence with monotone snapshots, and — the determinism
// contract every observability hook shares — that wiring it changes
// nothing about the run's Result.
func TestProgressHookObserves(t *testing.T) {
	g := pipeline(t, 1e9, 2, 32)
	base := Config{
		Graph:    g,
		Profile:  traffic.Fixed("t", unit.Bandwidth(5e8), 1000),
		Seed:     7,
		Duration: 0.02,
	}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []Progress
	observed := base
	observed.Progress = func(p Progress) { snaps = append(snaps, p) }
	got, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Fatalf("Progress hook perturbed the run:\nbare: %+v\nobs:  %+v", bare, got)
	}
	if len(snaps) == 0 {
		t.Fatal("progress hook never fired")
	}
	var prev Progress
	for i, p := range snaps {
		if i > 0 && (p.Events < prev.Events || p.SimTime < prev.SimTime || p.Checkpoints < prev.Checkpoints) {
			t.Fatalf("progress not monotone at %d: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	if prev.Events == 0 {
		t.Fatalf("final progress shows no events: %+v", prev)
	}
}

// TestProgressReportsCheckpoints checks the Checkpoints field counts the
// snapshots the run actually took.
func TestProgressReportsCheckpoints(t *testing.T) {
	g := pipeline(t, 1e9, 2, 32)
	taken := 0
	var last Progress
	cfg := Config{
		Graph:           g,
		Profile:         traffic.Fixed("t", unit.Bandwidth(5e8), 1000),
		Seed:            7,
		Duration:        0.02,
		CheckpointEvery: 2048,
		CheckpointSink:  func(*Checkpoint) error { taken++; return nil },
		Progress:        func(p Progress) { last = p },
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if taken == 0 {
		t.Fatal("run took no checkpoints; lower CheckpointEvery")
	}
	// The final progress poll may trail the last checkpoint by less than
	// one poll interval, so allow one of slack.
	if last.Checkpoints < uint64(taken-1) {
		t.Fatalf("progress saw %d checkpoints, run took %d", last.Checkpoints, taken)
	}
}

// TestSpansCarryTraceIdentity checks that a run launched with trace
// identity stamps it on every emitted span.
func TestSpansCarryTraceIdentity(t *testing.T) {
	g := pipeline(t, 1e9, 2, 32)
	tracer := obs.NewTracer(1024)
	cfg := Config{
		Graph:        g,
		Profile:      traffic.Fixed("t", unit.Bandwidth(5e8), 1000),
		Seed:         7,
		Duration:     0.005,
		Spans:        tracer,
		TraceID:      "0af7651916cd43dd8448eb211c80319c",
		ParentSpanID: "b7ad6b7169203331",
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	for _, s := range spans {
		if s.TraceID != cfg.TraceID || s.ParentID != cfg.ParentSpanID {
			t.Fatalf("span %q missing trace identity: %+v", s.Name, s)
		}
	}
}

// TestProgressNeverEmpty checks that no Progress call reports zero
// events, on the serial engine and the sharded one alike: a frame sent
// before the first event carries nothing, and the job event stream relays
// every frame it gets.
func TestProgressNeverEmpty(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg, err := MeshConfig(8, 0.7, 3, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = shards
		calls := 0
		cfg.Progress = func(p Progress) {
			calls++
			if p.Events == 0 {
				t.Errorf("shards=%d: progress call %d reports zero events: %+v", shards, calls, p)
			}
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatalf("shards=%d: progress hook never fired", shards)
		}
	}
}
