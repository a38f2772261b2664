// Package eval is the one step from a loaded model to a result shared by
// every surface: the lognic CLIs (internal/cli), the synchronous
// lognic-serve endpoints and its async jobs (internal/serve). It owns the
// result wire types, the analytical point estimate, the optimizer's
// knob→value result, the simulation config a model implies, and the JSON
// encoding of all of them, so the surfaces return the same bytes for the
// same spec by construction rather than by keeping copies in step.
package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"lognic/internal/core"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// ErrNonFinite reports a result holding NaN or ±Inf: the spec drove the
// model out of floating-point range (a granularity of 1.7e308, say), and
// JSON cannot carry the number. It is the caller's input at fault, so
// serve answers 422 and async jobs fail without retrying.
var ErrNonFinite = errors.New("eval: result is not finite")

// PointResult is the JSON shape of one analytical estimate.
type PointResult struct {
	IngressBW    float64            `json:"ingress_bw"`
	Throughput   float64            `json:"throughput"`
	Bottleneck   string             `json:"bottleneck"`
	Latency      float64            `json:"latency"`
	DropRate     float64            `json:"drop_rate"`
	Constraints  []ConstraintResult `json:"constraints"`
	PathsLatency []PathResult       `json:"paths,omitempty"`
}

// ConstraintResult is one Equation 4 term.
type ConstraintResult struct {
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`
	Limit float64 `json:"limit"`
}

// PathResult is one path's latency breakdown.
type PathResult struct {
	Vertices []string `json:"vertices"`
	Weight   float64  `json:"weight"`
	Total    float64  `json:"total"`
	Queueing float64  `json:"queueing"`
	Compute  float64  `json:"compute"`
	Overhead float64  `json:"overhead"`
	Movement float64  `json:"movement"`
}

// OptimizeResult is the JSON shape of a knob search.
type OptimizeResult struct {
	// Goal names the optimized metric.
	Goal string `json:"goal"`
	// Knobs maps "vertex.param" to the chosen value.
	Knobs map[string]int `json:"knobs"`
	// Objective is the metric value at the chosen point (seconds for
	// latency, bytes/second otherwise).
	Objective float64 `json:"objective"`
	// Evaluated counts model evaluations spent.
	Evaluated int `json:"evaluated"`
	// Exhaustive reports whether the search covered the whole space.
	Exhaustive bool `json:"exhaustive"`
}

// Point evaluates a model once.
func Point(m core.Model) (PointResult, error) {
	est, err := m.Estimate()
	if err != nil {
		return PointResult{}, err
	}
	out := PointResult{
		IngressBW:  m.Traffic.IngressBW,
		Throughput: est.Throughput.Attainable,
		Bottleneck: est.Throughput.Bottleneck.String(),
		Latency:    est.Latency.Attainable,
		DropRate:   est.Latency.DropRate,
	}
	if !finite(out.IngressBW, out.Throughput, out.Latency, out.DropRate) {
		return PointResult{}, nonFinite("throughput, latency or drop rate")
	}
	for _, c := range est.Throughput.Constraints {
		if !finite(c.Limit) {
			return PointResult{}, nonFinite("constraint limit")
		}
		out.Constraints = append(out.Constraints, ConstraintResult{
			Kind: c.Kind.String(), Name: c.Name, Limit: c.Limit,
		})
	}
	for _, p := range est.Latency.Paths {
		if !finite(p.Weight, p.Total, p.Queueing, p.Compute, p.Overhead, p.Movement) {
			return PointResult{}, nonFinite("path latency")
		}
		out.PathsLatency = append(out.PathsLatency, PathResult{
			Vertices: p.Vertices, Weight: p.Weight, Total: p.Total,
			Queueing: p.Queueing, Compute: p.Compute,
			Overhead: p.Overhead, Movement: p.Movement,
		})
	}
	return out, nil
}

// Optimize searches the knobs for the setting that best meets goal within
// maxEvals model evaluations (0 selects the optimizer's default) — the
// model's optimizer mode, Figure 4-a's "apply for optimization" output.
func Optimize(m core.Model, goal optimizer.Goal, knobs []optimizer.IntKnob, maxEvals int) (OptimizeResult, error) {
	sol, err := optimizer.SolveKnobs(m, goal, knobs, maxEvals)
	if err != nil {
		return OptimizeResult{}, err
	}
	if !finite(sol.Objective) {
		return OptimizeResult{}, nonFinite("objective")
	}
	out := OptimizeResult{
		Goal:       goal.String(),
		Knobs:      make(map[string]int, len(knobs)),
		Objective:  sol.Objective,
		Evaluated:  sol.Evaluated,
		Exhaustive: sol.Exhaustive,
	}
	for i, k := range knobs {
		out.Knobs[k.Name()] = sol.Values[i]
	}
	return out, nil
}

// SimConfig completes run — seed, duration and the other run options —
// with what the model fixes: its graph, its hardware, and a fixed-size
// traffic profile at the spec's offered load and granularity.
func SimConfig(m core.Model, run sim.Config) sim.Config {
	run.Graph, run.Hardware = m.Graph, m.Hardware
	run.Profile = traffic.Fixed(m.Graph.Name(),
		unit.Bandwidth(m.Traffic.IngressBW), unit.Size(m.Traffic.Granularity))
	return run
}

// Encode renders a result as the bytes every surface emits: compact JSON
// and a newline, exactly what a json.Encoder writes. A NaN or infinite
// number fails with ErrNonFinite.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		var uv *json.UnsupportedValueError
		if errors.As(err, &uv) && uv.Value.CanFloat() {
			return nil, nonFinite(uv.Str)
		}
		return nil, err
	}
	return append(b, '\n'), nil
}

// Write encodes v to w.
func Write(w io.Writer, v any) error {
	b, err := Encode(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// finite reports whether every value is a number other than NaN or ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// nonFinite is ErrNonFinite naming the part of the result at fault.
func nonFinite(what string) error { return fmt.Errorf("%w: %s", ErrNonFinite, what) }
