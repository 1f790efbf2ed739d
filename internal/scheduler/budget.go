// Budget ledger: global and per-job crowd-spend accounting backing the
// scheduler's priority-aware admission. The ledger only counts money —
// parking decisions (what to do when a job doesn't fit) live in the
// scheduler's flush loop, and durable persistence lives in jobs.Service
// (the ledger is rebuilt from its WAL-replayed budget state on restart).
package scheduler

import (
	"fmt"
	"sort"
	"sync"
)

// Ledger tracks crowd spend against a global limit and optional per-job
// limits. It is safe for concurrent use. A zero limit means unlimited.
type Ledger struct {
	mu          sync.Mutex
	globalLimit float64
	globalSpent float64
	jobs        map[string]*jobLedger
}

type jobLedger struct{ limit, spent float64 }

// NewLedger builds a ledger with the given global limit (0 = unlimited).
func NewLedger(globalLimit float64) *Ledger {
	return &Ledger{globalLimit: globalLimit, jobs: make(map[string]*jobLedger)}
}

// SetJobLimit records a job's spend cap (0 = unlimited). Lowering a
// limit below the job's spend doesn't claw anything back; it only blocks
// further admission.
func (l *Ledger) SetJobLimit(job string, limit float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.job(job).limit = limit
}

// Charge records amount of actual crowd spend against the job and the
// global total. Charges are facts, not requests: they are applied even
// past a limit (the crowd was already paid); limits gate admission of
// future work, not settlement of finished work.
func (l *Ledger) Charge(job string, amount float64) {
	if amount == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.globalSpent += amount
	l.job(job).spent += amount
}

// Restore seeds the ledger from persisted state (WAL replay): global
// spend and per-job limit/spend pairs.
func (l *Ledger) Restore(globalSpent float64, jobs map[string]JobBudget) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.globalSpent = globalSpent
	for name, jb := range jobs {
		rec := l.job(name)
		rec.limit = jb.Limit
		rec.spent = jb.Spent
	}
}

// Admissible reports whether charging the job an estimated amount would
// stay inside both the job's own limit and the global limit.
// globalReserved is budget already promised to any peer admitted in the
// same scheduling round but not yet settled; jobReserved is the part of
// it promised to this same job (two tickets under one name must not
// jointly blow the job's cap). A peer's reservation never shrinks
// another job's own cap.
func (l *Ledger) Admissible(job string, estimate, globalReserved, jobReserved float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.globalLimit > 0 && l.globalSpent+globalReserved+estimate > l.globalLimit {
		return false
	}
	if rec, ok := l.jobs[job]; ok && rec.limit > 0 && rec.spent+jobReserved+estimate > rec.limit {
		return false
	}
	return true
}

// MarginalDecision is the outcome of pricing an enumeration job's next
// HIT batch against its expected yield.
type MarginalDecision int

const (
	// MarginalAdmit: the batch is worth buying and fits the budget.
	MarginalAdmit MarginalDecision = iota
	// MarginalStop: the expected value of the batch no longer covers its
	// price — discovery has dried up. The job should finish, not park:
	// more budget would not change the economics.
	MarginalStop
	// MarginalPark: the batch is still worth buying but doesn't fit the
	// job or global budget. The job parks and can resume once budget is
	// raised.
	MarginalPark
)

// AdmitMarginal prices an enumeration job's next HIT batch: admit only
// while E[new items per batch] x per-item value exceeds the batch
// price. This is the open-ended counterpart of the Eq.4 accuracy bound —
// a principled stop for queries with no known answer set. Value is
// checked before budget so a dried-up job finishes Done instead of
// parking on a budget it would never productively spend.
func (l *Ledger) AdmitMarginal(job string, price, expectedNewItems, itemValue float64) MarginalDecision {
	if expectedNewItems*itemValue <= price {
		return MarginalStop
	}
	if !l.Admissible(job, price, 0, 0) {
		return MarginalPark
	}
	return MarginalAdmit
}

// JobBudget is one job's budget line: its cap and what it has spent.
type JobBudget struct {
	Limit float64 `json:"limit"` // 0 = unlimited
	Spent float64 `json:"spent"`
}

// JobBudgetLine is a named budget line in a snapshot.
type JobBudgetLine struct {
	Job string `json:"job"`
	JobBudget
}

// BudgetSnapshot is the ledger's state for reporting (GET /v1/scheduler).
type BudgetSnapshot struct {
	GlobalLimit float64         `json:"global_limit"` // 0 = unlimited
	GlobalSpent float64         `json:"global_spent"`
	Jobs        []JobBudgetLine `json:"jobs,omitempty"` // sorted by job name
}

// Snapshot copies the ledger's state, job lines sorted by name.
func (l *Ledger) Snapshot() BudgetSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := BudgetSnapshot{GlobalLimit: l.globalLimit, GlobalSpent: l.globalSpent}
	for name, rec := range l.jobs {
		out.Jobs = append(out.Jobs, JobBudgetLine{
			Job:       name,
			JobBudget: JobBudget{Limit: rec.limit, Spent: rec.spent},
		})
	}
	sort.Slice(out.Jobs, func(i, j int) bool { return out.Jobs[i].Job < out.Jobs[j].Job })
	return out
}

// Spent reports the global spend so far.
func (l *Ledger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.globalSpent
}

// String summarises the ledger for logs.
func (l *Ledger) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.globalLimit <= 0 {
		return fmt.Sprintf("spent %.3f (unlimited)", l.globalSpent)
	}
	return fmt.Sprintf("spent %.3f of %.3f", l.globalSpent, l.globalLimit)
}

// job returns (creating if needed) a job's ledger line. Callers hold mu.
func (l *Ledger) job(name string) *jobLedger {
	rec, ok := l.jobs[name]
	if !ok {
		rec = &jobLedger{}
		l.jobs[name] = rec
	}
	return rec
}
