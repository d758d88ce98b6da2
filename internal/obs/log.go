package obs

import (
	"io"
	"log/slog"
)

// The shared structured-log key vocabulary. Every dispatch diagnostic in
// the fleet uses these keys, so one grep (or one log-pipeline field)
// means the same thing on the coordinator, the workers, and the CLIs —
// the log table in docs/OPERATIONS.md is written against them.
const (
	// KeyWorker is a worker's display name ("proc 2", "hostB:9700").
	KeyWorker = "worker"
	// KeyBatch is a dispatch batch ID (they start at 1).
	KeyBatch = "batch"
	// KeyKey is a simulation's canonical machine|workload identity.
	KeyKey = "key"
	// KeyAttempt is a job's dispatch-attempt ordinal.
	KeyAttempt = "attempt"
	// KeyCause carries the error or reason behind an event.
	KeyCause = "cause"
	// KeyJobs counts jobs (queued, requeued, outstanding).
	KeyJobs = "jobs"
	// KeyAddr is a network address (listeners, peers).
	KeyAddr = "addr"
)

// NewLogger returns the fleet's standard structured logger: slog text
// format at Info level to w (stderr in the CLIs — stdout carries only
// reports).
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo}))
}
