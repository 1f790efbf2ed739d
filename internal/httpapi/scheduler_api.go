// The cross-query crowd scheduler behind GET /v1/scheduler (v1.go
// serves its batching, dedup-cache and budget state as the typed
// api.SchedulerState).
package httpapi

import "cdas/internal/scheduler"

// SchedulerReporter is the slice of the scheduler the API needs.
// *scheduler.Scheduler satisfies it.
type SchedulerReporter interface {
	State() scheduler.State
}

// SetScheduler attaches the cross-query scheduler behind the scheduler
// routes. A Server without one answers them with 503.
func (s *Server) SetScheduler(r SchedulerReporter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched = r
}
