// Package jobs implements the CDAS job manager (Section 2.1, Figure 2):
// it accepts analytics job registrations, validates their queries, and
// produces processing plans that partition each job into computer-oriented
// tasks (run by the program executor) and human-oriented tasks (run by the
// crowdsourcing engine).
package jobs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"cdas/internal/core/aggregate"
	"cdas/internal/textutil"
)

// Query is the analytics query of Definition 1: (S, C, R, t, w).
type Query struct {
	Keywords         []string      // S: filter keywords
	RequiredAccuracy float64       // C: accuracy requirement in (0, 1)
	Domain           []string      // R: the answer domain
	Start            time.Time     // t: query timestamp
	Window           time.Duration // w: time window
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if err := checkKeywords(q.Keywords); err != nil {
		return err
	}
	if q.RequiredAccuracy <= 0 || q.RequiredAccuracy >= 1 || math.IsNaN(q.RequiredAccuracy) {
		return fmt.Errorf("jobs: required accuracy must be in (0,1), got %v", q.RequiredAccuracy)
	}
	if len(q.Domain) < 2 {
		return fmt.Errorf("jobs: answer domain needs >= 2 answers, got %d", len(q.Domain))
	}
	seen := make(map[string]struct{}, len(q.Domain))
	for _, r := range q.Domain {
		if _, dup := seen[r]; dup {
			return fmt.Errorf("jobs: duplicate domain answer %q", r)
		}
		seen[r] = struct{}{}
	}
	if q.Window <= 0 {
		return fmt.Errorf("jobs: window must be positive, got %v", q.Window)
	}
	return nil
}

// checkKeywords requires a keyword that can match: the filter drops
// empty keywords, so a list of only empty ones matches no item.
func checkKeywords(keywords []string) error {
	for _, k := range keywords {
		if k != "" {
			return nil
		}
	}
	return errors.New("jobs: query needs at least one non-empty keyword")
}

// Matches reports whether an item with the given text and timestamp falls
// inside the query's keyword filter and time window — the computer-side
// filter the program executor applies to the stream.
func (q Query) Matches(text string, at time.Time) bool {
	return q.InWindow(at) && textutil.ContainsAny(text, q.Keywords)
}

// InWindow reports whether at falls inside the query's half-open time
// window [Start, Start+Window).
func (q Query) InWindow(at time.Time) bool {
	return !at.Before(q.Start) && at.Before(q.Start.Add(q.Window))
}

// Kind identifies the application type of a job, selecting its plan
// template.
type Kind string

// Supported job kinds.
const (
	KindTSA         Kind = "tsa"         // Twitter sentiment analytics (Section 2.2)
	KindImageTag    Kind = "imagetag"    // image tagging (Section 5.2)
	KindCustom      Kind = "custom"      // caller supplies the task split
	KindContinuous  Kind = "continuous"  // standing query over an unbounded stream
	KindEnumeration Kind = "enumeration" // open-ended "list all X" set enumeration
)

// StreamSpec configures a KindContinuous job: a standing query whose
// items arrive over time and are verified window by window. For a
// continuous job the base Query is reinterpreted: Query.Start is the
// stream origin and Query.Window the tumbling event-time window width;
// there is no upper time bound — the query stands until its source ends
// or it is cancelled. All fields are durable (they ride the job record
// through the WAL/LSM store) so a restarted server rebuilds the exact
// same stream.
type StreamSpec struct {
	// Lateness is the watermark lag: a window [s, e) closes once an
	// item with event time >= e+Lateness has been seen. Items arriving
	// behind the watermark are dropped (accounted, never buffered).
	Lateness time.Duration `json:"lateness,omitempty"`
	// TargetFill is the batch-fill target the adaptive batcher aims
	// for: batch size ~= observed arrival rate x TargetFill, clamped to
	// [1, engine real slots]. Zero picks a default of half the window.
	TargetFill time.Duration `json:"target_fill,omitempty"`
	// WindowCapacity caps the crowd questions asked per window — the
	// crowd-throughput budget. Items beyond it settle with degraded
	// partial-vote verdicts or are dropped. Zero means engine real
	// slots per window.
	WindowCapacity int `json:"window_capacity,omitempty"`
	// MaxBacklog bounds buffered matched items across open windows;
	// arrivals beyond it are dropped (accounted). Zero picks
	// 4 x WindowCapacity.
	MaxBacklog int `json:"max_backlog,omitempty"`
	// Items is the number of items the built-in deterministic source
	// emits (the demo/loadgen source). Zero lets the runner's source
	// decide.
	Items int `json:"items,omitempty"`
	// Rate is the built-in source's mean event-time arrival rate in
	// items per second (seeded exponential inter-arrival gaps).
	Rate float64 `json:"rate,omitempty"`
	// SourceSeed seeds the built-in source's arrival process.
	SourceSeed uint64 `json:"source_seed,omitempty"`
}

// Validate reports whether the spec is well-formed.
func (sp StreamSpec) Validate() error {
	if sp.Lateness < 0 {
		return fmt.Errorf("jobs: stream lateness must be >= 0, got %v", sp.Lateness)
	}
	if sp.TargetFill < 0 {
		return fmt.Errorf("jobs: stream target fill must be >= 0, got %v", sp.TargetFill)
	}
	if sp.WindowCapacity < 0 {
		return fmt.Errorf("jobs: stream window capacity must be >= 0, got %d", sp.WindowCapacity)
	}
	if sp.MaxBacklog < 0 {
		return fmt.Errorf("jobs: stream max backlog must be >= 0, got %d", sp.MaxBacklog)
	}
	if sp.Items < 0 {
		return fmt.Errorf("jobs: stream items must be >= 0, got %d", sp.Items)
	}
	if sp.Rate < 0 || math.IsNaN(sp.Rate) {
		return fmt.Errorf("jobs: stream rate must be >= 0, got %v", sp.Rate)
	}
	return nil
}

// Enumeration batch sizing defaults, used when the spec leaves
// HITWorkers or PerWorker zero.
const (
	DefaultEnumHITWorkers = 5
	DefaultEnumPerWorker  = 3
)

// EnumSpec configures a KindEnumeration job: an open-ended "list all X"
// query where workers contribute set members instead of votes. The base
// Query is reinterpreted: Keywords name the set to collect; there is no
// answer domain, accuracy requirement or time window — the stopping
// rule is the species-estimation completeness bound plus the ledger's
// marginal-value admission. All fields are durable (they ride the job
// record through the WAL/LSM store).
type EnumSpec struct {
	// ItemValue is the worth of one newly discovered set member, in the
	// same currency as HIT prices. The next HIT batch is admitted only
	// while E[new items per batch] x ItemValue exceeds the batch price.
	ItemValue float64 `json:"item_value"`
	// TargetCoverage optionally stops the job once the Chao92
	// completeness estimate (observed / estimated total) reaches it.
	// Zero disables the coverage stop.
	TargetCoverage float64 `json:"target_coverage,omitempty"`
	// MaxBatches caps the number of HIT batches (0 = unlimited).
	MaxBatches int `json:"max_batches,omitempty"`
	// HITWorkers is how many workers answer each HIT batch (0 picks
	// DefaultEnumHITWorkers).
	HITWorkers int `json:"hit_workers,omitempty"`
	// PerWorker is how many set members each worker is asked for
	// (0 picks DefaultEnumPerWorker).
	PerWorker int `json:"per_worker,omitempty"`
	// Universe is the built-in deterministic source's hidden set size
	// (the demo/loadgen source). Zero lets the runner's source decide.
	Universe int `json:"universe,omitempty"`
	// Popularity is the built-in source's Zipf-like skew exponent:
	// item i is drawn with weight 1/(i+1)^Popularity. Zero picks 1.
	Popularity float64 `json:"popularity,omitempty"`
	// SourceSeed seeds the built-in source's draws.
	SourceSeed uint64 `json:"source_seed,omitempty"`
}

// Validate reports whether the spec is well-formed.
func (sp EnumSpec) Validate() error {
	if sp.ItemValue <= 0 || math.IsNaN(sp.ItemValue) {
		return fmt.Errorf("jobs: enum item value must be > 0, got %v", sp.ItemValue)
	}
	if sp.TargetCoverage < 0 || sp.TargetCoverage >= 1 || math.IsNaN(sp.TargetCoverage) {
		return fmt.Errorf("jobs: enum target coverage must be in [0,1), got %v", sp.TargetCoverage)
	}
	if sp.MaxBatches < 0 {
		return fmt.Errorf("jobs: enum max batches must be >= 0, got %d", sp.MaxBatches)
	}
	if sp.HITWorkers < 0 {
		return fmt.Errorf("jobs: enum HIT workers must be >= 0, got %d", sp.HITWorkers)
	}
	if sp.PerWorker < 0 {
		return fmt.Errorf("jobs: enum per-worker contributions must be >= 0, got %d", sp.PerWorker)
	}
	if sp.Universe < 0 {
		return fmt.Errorf("jobs: enum universe must be >= 0, got %d", sp.Universe)
	}
	if sp.Popularity < 0 || math.IsNaN(sp.Popularity) {
		return fmt.Errorf("jobs: enum popularity must be >= 0, got %v", sp.Popularity)
	}
	return nil
}

// Workers resolves the per-batch worker count, applying the default.
func (sp EnumSpec) Workers() int {
	if sp.HITWorkers > 0 {
		return sp.HITWorkers
	}
	return DefaultEnumHITWorkers
}

// ContributionsPerWorker resolves how many members each worker names.
func (sp EnumSpec) ContributionsPerWorker() int {
	if sp.PerWorker > 0 {
		return sp.PerWorker
	}
	return DefaultEnumPerWorker
}

// BatchContributions is the contribution count of one full HIT batch —
// the E[new items per batch] denominator in marginal-value admission.
func (sp EnumSpec) BatchContributions() int {
	return sp.Workers() * sp.ContributionsPerWorker()
}

// Job is a registered analytics job.
type Job struct {
	Name  string
	Kind  Kind
	Query Query
	// Tenant scopes the job to the submitting organisation. Empty is
	// the default (single-tenant) scope; list queries can filter by it.
	Tenant string
	// Priority orders budget admission in the cross-query scheduler:
	// when the remaining budget cannot cover every pending job, higher
	// priorities are admitted first. Zero is the default tier.
	Priority int
	// Budget caps the job's total crowd spend (0 = unlimited). A job
	// whose estimated next run would exceed it is parked, not failed.
	Budget float64
	// Aggregator names the answer-aggregation method (aggregate
	// registry) the job's crowd questions are decided with. Empty
	// selects the default, the CDAS probability model.
	Aggregator string
	// Stream configures a KindContinuous job's standing-query
	// parameters; required for that kind, nil for every other.
	Stream *StreamSpec `json:"Stream,omitempty"`
	// Enum configures a KindEnumeration job's open-ended collection
	// parameters; required for that kind, nil for every other.
	Enum *EnumSpec `json:"Enum,omitempty"`
}

// Task is one step of a processing plan.
type Task struct {
	Name        string
	Description string
	Human       bool // true: crowdsourcing engine; false: program executor
}

// Plan is the partitioned processing plan for a job (Figure 2: the job
// manager "partitions the job into two parts, one for the computers and
// one for the human workers").
type Plan struct {
	Job           Job
	ComputerTasks []Task
	HumanTasks    []Task
}

// planFor instantiates the plan template for the job's kind.
func planFor(job Job) (Plan, error) {
	switch job.Kind {
	case KindTSA:
		return Plan{
			Job: job,
			ComputerTasks: []Task{
				{Name: "filter-stream", Description: "retrieve the tweet stream and keep tweets matching the query keywords inside the window"},
				{Name: "buffer", Description: "buffer candidate tweets into HIT-sized batches"},
				{Name: "summarise", Description: "aggregate accepted answers into percentages and reasons"},
			},
			HumanTasks: []Task{
				{Name: "classify-sentiment", Description: "categorise each tweet's opinion over the answer domain", Human: true},
			},
		}, nil
	case KindImageTag:
		return Plan{
			Job: job,
			ComputerTasks: []Task{
				{Name: "collect-candidates", Description: "assemble candidate tag sets (existing tags plus noise)"},
				{Name: "index", Description: "index images by their accepted tags"},
			},
			HumanTasks: []Task{
				{Name: "select-tags", Description: "choose the correct tag for each image", Human: true},
			},
		}, nil
	case KindContinuous:
		return Plan{
			Job: job,
			ComputerTasks: []Task{
				{Name: "ingest-stream", Description: "pull items from the source and filter them against the query keywords"},
				{Name: "window", Description: "assign items to tumbling event-time windows and close windows on the watermark"},
				{Name: "batch-adaptively", Description: "size engine batches from the observed arrival rate, shedding under saturation"},
				{Name: "summarise-windows", Description: "fold each window's verdicts into per-window and running results"},
			},
			HumanTasks: []Task{
				{Name: "classify-items", Description: "categorise each windowed item over the answer domain", Human: true},
			},
		}, nil
	case KindEnumeration:
		return Plan{
			Job: job,
			ComputerTasks: []Task{
				{Name: "canonicalize", Description: "normalise free-text contributions and dedup them into the growing result set"},
				{Name: "estimate", Description: "update the Chao92 species estimate from the frequency-of-frequencies"},
				{Name: "admit-marginal", Description: "admit the next HIT batch only while expected discovery value exceeds its price"},
			},
			HumanTasks: []Task{
				{Name: "contribute-members", Description: "name members of the requested set in free text", Human: true},
			},
		}, nil
	case KindCustom:
		return Plan{Job: job}, nil
	default:
		return Plan{}, fmt.Errorf("jobs: unknown job kind %q", job.Kind)
	}
}

// DefaultMaxAttempts is how many times a job may be claimed before a
// failure becomes terminal, when the Manager doesn't override it.
const DefaultMaxAttempts = 3

// Manager is the job registry and lifecycle state machine (see
// lifecycle.go for the states). It is safe for concurrent use.
type Manager struct {
	mu          sync.RWMutex
	recs        map[string]*Status
	ix          *indexes
	maxAttempts int
	nextSeq     uint64
}

// NewManager returns an empty Manager with DefaultMaxAttempts.
func NewManager() *Manager {
	return &Manager{
		recs:        make(map[string]*Status),
		ix:          newIndexes(),
		maxAttempts: DefaultMaxAttempts,
	}
}

// SetMaxAttempts bounds the retry loop: a job failing on its n-th claim
// with n >= max lands in Failed instead of requeueing. Values < 1 are
// ignored.
func (m *Manager) SetMaxAttempts(max int) {
	if max < 1 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxAttempts = max
}

// MaxAttempts reports the retry bound.
func (m *Manager) MaxAttempts() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.maxAttempts
}

// Registration errors.
var (
	ErrDuplicateJob = errors.New("jobs: job already registered")
	ErrUnknownJob   = errors.New("jobs: no such job")
)

// Register validates the job, stores it in state Pending, and returns
// its processing plan.
func (m *Manager) Register(job Job) (Plan, error) {
	if job.Name == "" {
		return Plan{}, errors.New("jobs: job needs a name")
	}
	if job.Budget < 0 || math.IsNaN(job.Budget) {
		return Plan{}, fmt.Errorf("jobs: job budget must be >= 0, got %v", job.Budget)
	}
	if err := aggregate.Validate(job.Aggregator); err != nil {
		return Plan{}, fmt.Errorf("jobs: %w", err)
	}
	if job.Kind == KindEnumeration {
		// Open-ended enumeration: keywords name the set to collect, but
		// there is no answer domain, accuracy bound or window to check.
		if err := checkKeywords(job.Query.Keywords); err != nil {
			return Plan{}, err
		}
	} else if err := job.Query.Validate(); err != nil {
		return Plan{}, err
	}
	if job.Kind == KindContinuous {
		if job.Stream == nil {
			return Plan{}, errors.New("jobs: continuous job needs a stream spec")
		}
		if err := job.Stream.Validate(); err != nil {
			return Plan{}, err
		}
	} else if job.Stream != nil {
		return Plan{}, fmt.Errorf("jobs: stream spec is only valid for %q jobs, got kind %q", KindContinuous, job.Kind)
	}
	if job.Kind == KindEnumeration {
		if job.Enum == nil {
			return Plan{}, errors.New("jobs: enumeration job needs an enum spec")
		}
		if err := job.Enum.Validate(); err != nil {
			return Plan{}, err
		}
	} else if job.Enum != nil {
		return Plan{}, fmt.Errorf("jobs: enum spec is only valid for %q jobs, got kind %q", KindEnumeration, job.Kind)
	}
	plan, err := planFor(job)
	if err != nil {
		return Plan{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.recs[job.Name]; dup {
		return Plan{}, fmt.Errorf("%w: %q", ErrDuplicateJob, job.Name)
	}
	rec := &Status{Job: job, State: StatePending, seq: m.nextSeq}
	m.recs[job.Name] = rec
	m.ix.enter(rec)
	m.nextSeq++
	return plan, nil
}

// Get returns a registered job.
func (m *Manager) Get(name string) (Job, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.recs[name]
	if !ok {
		return Job{}, false
	}
	return rec.Job, true
}

// Unregister removes a job and its lifecycle record; it returns
// ErrUnknownJob if absent.
func (m *Manager) Unregister(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	m.ix.leave(rec)
	delete(m.recs, name)
	return nil
}

// Jobs lists registered jobs sorted by name.
func (m *Manager) Jobs() []Job {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Job, 0, len(m.recs))
	for _, rec := range m.recs {
		out = append(out, rec.Job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortStatuses(out []Status) {
	sort.Slice(out, func(i, j int) bool { return out[i].Job.Name < out[j].Job.Name })
}
