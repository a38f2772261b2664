package serve

// The async job API: POST /v1/jobs submits an estimate/optimize/simulate
// request for background evaluation, GET /v1/jobs/{id} polls it, DELETE
// /v1/jobs/{id} cancels it. Jobs exist for work that outlives a request
// timeout — long simulations especially — so attempts run without the
// synchronous RequestTimeout; a simulation is bounded by its event budget
// and periodically checkpointed, and an interrupted attempt (retry,
// restart, kill -9) resumes from the last checkpoint with results
// byte-identical to an uninterrupted run (internal/sim's guarantee).
//
// The job ID is the same canonical hash that keys the result cache, so
// submissions are idempotent: N clients posting equivalent specs get one
// job, one evaluation, and the same /v1/jobs/{id} to poll. Durability,
// retries with backoff, and the degraded memory-only mode live in
// internal/jobs; this file is the HTTP surface plus the evaluator that
// runs job kinds through the endpoint preparers.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lognic/internal/eval"
	"lognic/internal/jobs"
	"lognic/internal/obs"
	"lognic/internal/sim"
)

// prepareJob validates a job body with its kind's endpoint preparer, which
// also yields the canonical hash that is the job ID.
func (s *Server) prepareJob(kind string, body []byte) (prepared, error) {
	switch kind {
	case "estimate":
		return s.prepareEstimate(body)
	case "optimize":
		return s.prepareOptimize(body)
	case "simulate":
		return s.prepareSimulate(body)
	}
	return prepared{}, badRequest{fmt.Errorf("serve: unknown job kind %q (want estimate, optimize or simulate)", kind)}
}

// JobSubmitRequest is the body of POST /v1/jobs.
type JobSubmitRequest struct {
	// Kind is "estimate", "optimize" or "simulate".
	Kind string `json:"kind"`
	// Request is the body the matching synchronous endpoint would take.
	Request json.RawMessage `json:"request"`
}

// JobView is the wire shape of one job, returned by every /v1/jobs
// endpoint.
type JobView struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Attempts    int             `json:"attempts"`
	MaxAttempts int             `json:"max_attempts"`
	Coalesced   int             `json:"coalesced,omitempty"`
	Resumed     bool            `json:"resumed,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Created     time.Time       `json:"created"`
	Started     *time.Time      `json:"started,omitempty"`
	Finished    *time.Time      `json:"finished,omitempty"`
	// RetryAt is the scheduled time of the next attempt while the job
	// waits out a retry backoff.
	RetryAt *time.Time `json:"retry_at,omitempty"`
}

func jobView(j jobs.Job) JobView {
	v := JobView{
		ID: j.ID, Kind: j.Kind, State: string(j.State),
		Attempts: j.Attempts, MaxAttempts: j.MaxAttempts,
		Coalesced: j.Coalesced, Resumed: j.Resumed,
		Error: j.Error, Created: j.Created,
	}
	if len(j.Result) > 0 {
		v.Result = json.RawMessage(j.Result)
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	if !j.RetryAt.IsZero() {
		t := j.RetryAt
		v.RetryAt = &t
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// jobsUnready rejects job traffic with 503 until the journal replay has
// finished (accepting a submission before the journal is open would make
// it silently non-durable) and once the drain has begun. The Retry-After
// hint is derived from the actual state, not hardcoded: during the drain
// it reports the drain time left (after which either the process is gone
// — retry lands on a peer — or a stuck drain got killed); during replay
// it scales with how long the replay has already run, a standard
// elapsed-time predictor for a task of unknown length.
func (s *Server) jobsUnready(w http.ResponseWriter) bool {
	switch {
	case s.draining.Load():
		remaining := s.cfg.DrainTimeout - time.Since(time.Unix(0, s.drainStart.Load()))
		w.Header().Set("Retry-After", retryAfterValue(remaining))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining"))
		return true
	case !s.jobsReady.Load():
		w.Header().Set("Retry-After", retryAfterValue(time.Since(s.start)/2))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: job journal replay in progress"))
		return true
	}
	return false
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	var env JobSubmitRequest
	if err := decodeStrict(body, &env); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Validate now so a malformed spec fails the submission, not the
	// attempt.
	p, err := s.prepareJob(env.Kind, env.Request)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// The job rides the submitting request's trace (minted here when the
	// client sent none), so post-crash attempts in a future process still
	// rejoin the originating trace — the traceparent is journaled with
	// the submit record.
	tc, _ := s.requestTrace(r)
	w.Header().Set("X-Request-Id", tc.SpanID)
	snap, isNew, err := s.jobs.SubmitTrace(env.Kind, p.key, env.Request, tc.Traceparent())
	if err != nil {
		code := http.StatusInternalServerError
		if err == jobs.ErrClosed {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	code := http.StatusOK // coalesced into an existing job
	if isNew {
		code = http.StatusAccepted
	}
	writeJSON(w, code, jobView(snap))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	// A job waiting out its retry backoff won't change state before the
	// scheduled attempt: tell compliant pollers exactly when to come back.
	if j.State == jobs.StateQueued && !j.RetryAt.IsZero() {
		if until := time.Until(j.RetryAt); until > 0 {
			w.Header().Set("Retry-After", retryAfterValue(until))
		}
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	list := s.jobs.Jobs()
	views := make([]JobView, 0, len(list))
	for _, j := range list {
		// Results can be large; the listing is an index, poll the job for
		// its payload.
		j.Result = nil
		views = append(views, jobView(j))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnready(w) {
		return
	}
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

// handleReadyz is the readiness probe: distinct from /healthz (liveness),
// it reports 503 while the job journal replay is still rebuilding state
// and once the shutdown drain has begun, so load balancers stop routing
// before the listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.jobsReady.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "replaying-journal"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// evalJob is the jobs.Manager evaluator: the synchronous endpoints' road —
// prepare, run, encode — for a journaled (kind, body), so an async result
// is byte-for-byte the response the endpoint would have sent. Attempts
// deliberately run without RequestTimeout — outliving synchronous limits
// is what jobs are for — bounded instead by the simulation event budget
// and shutdown.
func (s *Server) evalJob(ctx context.Context, id, kind string, body []byte, ck jobs.CheckpointStore) ([]byte, error) {
	var out []byte
	p, err := s.prepareJob(kind, body)
	if err == nil {
		var result any
		if result, err = p.run(ctx, &jobAttempt{id: id, ck: ck}); err == nil {
			out, err = eval.Encode(result)
		}
	}
	// An error the endpoint would answer with a 4xx is deterministic in
	// the body: fail the job now rather than retry into the same answer.
	if err != nil && statusFor(err) < 500 {
		return nil, jobs.Permanent(err)
	}
	return out, err
}

// jobAttempt is the async job an evaluation runs for.
type jobAttempt struct {
	id string
	ck jobs.CheckpointStore
}

// simulate runs one simulation joined to the context's trace: vertex spans
// parent under the request span, or under the attempt span the job
// manager stamps. (Cache hits skip the evaluation entirely, so a request's
// trace holds simulation spans only on a cold key.) A job attempt also feeds live progress frames to the
// job's SSE subscribers (throttled to wall clock — the sim polls far
// faster than any human or dashboard), saves periodic snapshots to its
// checkpoint slot, and resumes from a saved snapshot instead of starting
// over.
func (s *Server) simulate(ctx context.Context, cfg sim.Config, job *jobAttempt) (any, error) {
	if tc, ok := obs.TraceFromContext(ctx); ok {
		cfg.TraceID = tc.TraceID
		cfg.ParentSpanID = tc.SpanID
		cfg.Spans = s.cfg.Tracer
	}
	if job != nil {
		var lastProgress time.Time
		cfg.Progress = func(p sim.Progress) {
			if now := time.Now(); now.Sub(lastProgress) >= 50*time.Millisecond {
				lastProgress = now
				s.jobs.Progress(job.id, p.Events, p.SimTime, p.Checkpoints)
			}
		}
		// Sharded runs cannot checkpoint (sim.ErrShardedCheckpoint); the
		// job still runs crash-safe, it just restarts attempts from t=0.
		if s.cfg.JobCheckpointEvery > 0 && cfg.Shards <= 1 {
			cfg.CheckpointEvery = s.cfg.JobCheckpointEvery
			cfg.CheckpointSink = func(c *sim.Checkpoint) error {
				if b, err := c.Encode(); err == nil {
					job.ck.Save(b) // best-effort: a snapshot we can't encode just isn't saved
				}
				return nil
			}
		}
		// A stale or undecodable snapshot (server upgraded, knob changed)
		// falls through to a fresh run — correct, just slower.
		if b, ok := job.ck.Load(); ok {
			if ckpt, err := sim.DecodeCheckpoint(b); err == nil {
				if sm, err := sim.Resume(cfg, ckpt); err == nil {
					s.jobs.MarkResumed(job.id)
					return sm.RunContext(ctx)
				}
			}
		}
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return nil, badRequest{err}
	}
	return sm.RunContext(ctx)
}
