package serve

import (
	"context"

	"lognic/internal/jobs"
)

// EvalJob exposes the async evaluator to the external parity test, which
// runs job attempts against checkpoint slots of its own.
func (s *Server) EvalJob(ctx context.Context, id, kind string, body []byte, ck jobs.CheckpointStore) ([]byte, error) {
	return s.evalJob(ctx, id, kind, body, ck)
}

// The HTTP test helpers, shared with the external parity test.
var (
	WaitReady = waitReady
	Post      = post
	SubmitJob = submitJob
	PollJob   = pollJob
)
