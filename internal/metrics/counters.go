// Operational counters for the running service, alongside the package's
// evaluation metrics: the job service and dispatcher publish lifecycle
// counts here and httpapi exposes them at GET /v1/metrics.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a set of named monotonic counters. It is safe for
// concurrent use, and every method is nil-receiver safe so callers can
// instrument unconditionally and let wiring decide whether a registry
// exists.
//
// Counters are plain atomics behind a lock-free name index: the hot
// path (Add/Inc on an existing counter) is one map load plus one atomic
// add, with no mutex anywhere — under the load generator's 64-tenant
// profiles the old single-mutex registry serialised every dispatcher,
// scheduler and engine increment through one lock. Snapshot and Names
// iterate without blocking writers; a snapshot is therefore a
// per-counter-consistent view, not a global atomic cut (counters keep
// moving while it is taken), which is exactly what a metrics endpoint
// needs.
type Registry struct {
	counters sync.Map // string -> *atomic.Int64
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// counter returns the named counter, creating it atomically on first
// use.
func (r *Registry) counter(name string) *atomic.Int64 {
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := r.counters.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Inc adds 1 to the named counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to the named counter, creating it at zero first.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

// Get returns the named counter's value (zero when absent).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Snapshot copies every counter.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Names lists the registered counters, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	var out []string
	r.counters.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// Counter names published by the job service and dispatcher.
const (
	CounterJobsSubmitted = "jobs_submitted"
	CounterJobsStarted   = "jobs_started"
	CounterJobsCompleted = "jobs_completed"
	CounterJobsFailed    = "jobs_failed"
	CounterJobsRetried   = "jobs_retried"
	CounterJobsCancelled = "jobs_cancelled"
	CounterJobsResumed   = "jobs_resumed"
	CounterJobsParked    = "jobs_parked"
	CounterJobsUnparked  = "jobs_unparked"
	CounterWALAppends    = "wal_appends"
	CounterWALSnapshots  = "wal_snapshots"
	CounterBudgetCharges = "budget_charges"
	// CounterBudgetChargeFailures counts crowd charges the durable ledger
	// refused (cdas-server's OnCharge hook): each one is money the
	// scheduler's ledger has and the store's does not.
	CounterBudgetChargeFailures = "budget_charge_failures"
	// CounterCheckpointFailures counts store checkpoints that failed
	// (the store keeps serving; the failed checkpoint is retried on the
	// next commit).
	CounterCheckpointFailures = "checkpoint_failures"
	// CounterWALFsyncs counts commit-path WAL fsyncs (durable services
	// only); wal_appends divided by it is the mean group-commit size.
	CounterWALFsyncs = "wal_fsyncs"
)

// Counter names published by the standing-query stream subsystem.
// Together they make the degrade ladder auditable: every arriving item
// is seen, matching items either reach the crowd, settle with a
// degraded partial-vote verdict, or are dropped with an accounted
// counter — never buffered without bound.
const (
	CounterStreamItemsSeen        = "stream_items_seen"
	CounterStreamItemsMatched     = "stream_items_matched"
	CounterStreamItemsDropped     = "stream_items_dropped"
	CounterStreamWindowsClosed    = "stream_windows_closed"
	CounterStreamDegradedVerdicts = "stream_degraded_verdicts"
)

// Counter names published by the cross-query crowd scheduler.
const (
	CounterSchedCacheHits   = "sched_cache_hits"
	CounterSchedCacheMisses = "sched_cache_misses"
	CounterSchedDeduped     = "sched_questions_deduped"
	CounterSchedPublished   = "sched_questions_published"
	CounterSchedBatches     = "sched_batches"
	CounterSchedParked      = "sched_jobs_parked"
)
