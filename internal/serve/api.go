package serve

// Request types and preparers for the three model endpoints; evaluation
// and the result types are internal/eval's, shared with the CLIs. The
// request DTOs embed spec.File — the same JSON spec format the CLIs load
// from disk — so a file that works with `lognic f.json` works as
// `{"spec": <contents of f.json>}` against the daemon. The DTOs are also
// the cache identity: a decoded request re-marshals deterministically
// (struct field order, units normalized to numbers by spec's
// unmarshalers), and the SHA-256 of those bytes keys the result cache.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lognic/internal/eval"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
	"lognic/internal/spec"
)

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	// Spec is the model document (spec package format).
	Spec spec.File `json:"spec"`
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	Spec spec.File `json:"spec"`
	// Goal is "latency", "throughput" or "goodput" (long forms accepted).
	Goal string `json:"goal"`
	// Knobs lists the integer parameters to search.
	Knobs []KnobSpec `json:"knobs"`
	// MaxEvals bounds model evaluations (0 selects the default).
	MaxEvals int `json:"max_evals,omitempty"`
}

// KnobSpec is one searched parameter.
type KnobSpec struct {
	Vertex string `json:"vertex"`
	// Param is "parallelism" or "queue".
	Param string `json:"param"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Spec spec.File `json:"spec"`
	// Duration is the simulated time in seconds. Required.
	Duration float64 `json:"duration"`
	// Warmup excludes initial simulated time from statistics (default 10%
	// of Duration).
	Warmup float64 `json:"warmup,omitempty"`
	// Seed drives all randomness; equal seeds give equal runs — which is
	// what makes simulation results cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Deterministic uses mean service times instead of exponential draws.
	Deterministic bool `json:"deterministic,omitempty"`
	// MaxEvents bounds the event budget (0 uses the server default).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// Shards, when above 1, runs the simulation on the sharded event
	// engine. Results are byte-identical to serial runs (equal seeds
	// still give equal, cacheable results); async jobs with Shards > 1
	// skip checkpointing, so a crashed attempt restarts from the top.
	Shards int `json:"shards,omitempty"`
}

// badRequest marks an error as the client's fault (HTTP 400): malformed
// JSON, an invalid spec, an unknown goal or knob.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// decodeStrict decodes a request body, rejecting unknown fields so typos
// fail loudly instead of silently evaluating a different model.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest{fmt.Errorf("serve: bad request body: %w", err)}
	}
	return nil
}

// cacheKey hashes an endpoint name plus the canonical form of a decoded
// request DTO. Marshaling the DTO (not the raw body) normalizes
// whitespace, key order and unit spellings, so equivalent requests share
// one cache entry.
func cacheKey(endpoint string, dto any) (string, error) {
	canon, err := json.Marshal(dto)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepared is one admitted request: its cache key and the work to run if
// the cache misses. An async job passes its attempt to run; synchronous
// requests pass nil.
type prepared struct {
	key string
	run func(ctx context.Context, job *jobAttempt) (any, error)
}

// prepareEstimate decodes and validates an estimate request.
func (s *Server) prepareEstimate(body []byte) (prepared, error) {
	var req EstimateRequest
	if err := decodeStrict(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	key, err := cacheKey("estimate", req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{key: key, run: func(context.Context, *jobAttempt) (any, error) {
		return eval.Point(m)
	}}, nil
}

// prepareOptimize decodes and validates an optimize request.
func (s *Server) prepareOptimize(body []byte) (prepared, error) {
	var req OptimizeRequest
	if err := decodeStrict(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	goal, err := optimizer.GoalFromName(req.Goal)
	if err != nil {
		return prepared{}, badRequest{err}
	}
	if len(req.Knobs) == 0 {
		return prepared{}, badRequest{fmt.Errorf("serve: optimize needs at least one knob")}
	}
	knobs := make([]optimizer.IntKnob, 0, len(req.Knobs))
	for _, k := range req.Knobs {
		ik := optimizer.IntKnob{Vertex: k.Vertex, Param: k.Param, Lo: k.Lo, Hi: k.Hi}
		if err := ik.Validate(m.Graph); err != nil {
			return prepared{}, badRequest{err}
		}
		knobs = append(knobs, ik)
	}
	key, err := cacheKey("optimize", req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{key: key, run: func(context.Context, *jobAttempt) (any, error) {
		return eval.Optimize(m, goal, knobs, req.MaxEvals)
	}}, nil
}

// prepareSimulate decodes and validates a simulate request.
func (s *Server) prepareSimulate(body []byte) (prepared, error) {
	var req SimulateRequest
	if err := decodeStrict(body, &req); err != nil {
		return prepared{}, err
	}
	m, err := req.Spec.Model()
	if err != nil {
		return prepared{}, badRequest{err}
	}
	if req.Duration <= 0 {
		return prepared{}, badRequest{fmt.Errorf("serve: simulate needs duration > 0 seconds")}
	}
	maxEvents := req.MaxEvents
	if maxEvents == 0 {
		maxEvents = s.cfg.MaxSimEvents
	}
	key, err := cacheKey("simulate", req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{key: key, run: func(ctx context.Context, job *jobAttempt) (any, error) {
		return s.simulate(ctx, eval.SimConfig(m, sim.Config{
			Seed:                 req.Seed,
			Duration:             req.Duration,
			Warmup:               req.Warmup,
			DeterministicService: req.Deterministic,
			MaxEvents:            maxEvents,
			Shards:               req.Shards,
		}), job)
	}}, nil
}
