// Package aggregate defines the pluggable answer-aggregation contract of
// the engine: given the votes workers cast on a batch of categorical
// questions, an Aggregator decides each question's answer, attaches a
// confidence, and estimates every worker's quality. CDAS's
// probability-based verification model (Section 4 of the paper), the
// majority baseline and Dawid–Skene EM are ported onto the interface
// unchanged in output; Wawa and Zero-Based Skill extend the menu with
// the agreement-driven methods of the Crowd-Kit quality-control suite.
//
// Aggregators register themselves in a package-level registry keyed by a
// stable name — the same name jobs carry on the wire (api.JobSubmission)
// and the scheduler keys its answer cache with, so cached verdicts never
// cross methods.
//
// Methods that can score a question from its own votes alone implement
// Incremental as well: the engine folds assignments in as they arrive
// (one Folder per in-flight question) instead of re-running the batch
// computation per HIT. Batch-only methods (EM and the skill-iteration
// family, which need the whole batch to estimate worker quality) are
// run once per HIT when its assignment stream drains.
package aggregate

import (
	"fmt"
	"sort"

	"cdas/internal/core/verification"
)

// DefaultName is the aggregator jobs run with when they do not pick one:
// the paper's probability-based verification model.
const DefaultName = "cdas"

// Vote is one worker's answer to one question, annotated with the
// worker's estimated historical accuracy (used by accuracy-aware
// methods; agreement-driven methods ignore it). It is the verification
// model's own vote type, so the CDAS folder stores the caller's votes
// as they are, with no conversion and no second copy.
type Vote = verification.Vote

// Question identifies one question of a batch: its ID and the
// answer-domain size m = |R| its confidences normalise over.
type Question struct {
	ID string
	M  int
}

// Batch is one HIT's worth of aggregation input: the questions, the
// votes each received (in arrival order), and the population-mean
// accuracy for methods that weigh unseen workers.
type Batch struct {
	Questions    []Question
	Votes        map[string][]Vote
	MeanAccuracy float64
}

// Verdict is an aggregator's decision for one question.
type Verdict struct {
	// Answer is the accepted answer (highest confidence).
	Answer string
	// Confidence is the accepted answer's confidence.
	Confidence float64
	// Ranked lists every answer that received at least one vote, most
	// confident first (ties broken by answer string).
	Ranked []verification.Scored
}

// Result is a full batch aggregation outcome.
type Result struct {
	// Verdicts maps question ID to its verdict. Questions that received
	// no votes have no verdict.
	Verdicts map[string]Verdict
	// WorkerQuality is the aggregator's per-worker quality estimate in
	// [0, 1]: agreement-with-aggregate for the voting methods, the EM
	// accuracy for Dawid–Skene, the skill for Wawa and Zero-Based Skill.
	WorkerQuality map[string]float64
}

// Aggregator decides a batch of questions from their votes.
type Aggregator interface {
	// Name is the stable registry key; also the wire enum value.
	Name() string
	// Aggregate scores every question of the batch that received votes.
	Aggregate(Batch) (Result, error)
}

// Spec sizes a Folder for one in-flight question.
type Spec struct {
	// Planned is the number of assignments the HIT plans to consume.
	Planned int
	// M is the answer-domain size |R|.
	M int
	// MeanAccuracy is the population-mean accuracy E[a].
	MeanAccuracy float64
	// Votes is the caller's store for this question's votes: an empty
	// buffer of capacity Planned. The folder appends every vote it
	// folds there, in fold order, and keeps no copy of its own, so the
	// caller reads the votes back as Votes[:Received()]. The engine cuts
	// every question's buffer from one slab per HIT. Nil lets the folder
	// keep whatever it needs itself.
	Votes []Vote
}

// Folder accumulates one question's votes as assignments arrive and
// exposes the running verdict. Folders are not safe for concurrent use;
// the engine owns one per in-flight question.
type Folder interface {
	// Fold records one vote, appending it to Spec.Votes when the caller
	// supplied that buffer. Implementations reject folds past the
	// planned assignment count.
	Fold(Vote) error
	// Received reports how many votes have been folded.
	Received() int
	// Verdict returns the running verdict over the folded votes, or
	// verification.ErrNoVotes before any arrival.
	Verdict() (Verdict, error)
}

// Incremental marks aggregators that score a question from its own
// votes alone, so the engine can fold assignments in one at a time —
// heavy-traffic paths never re-run the batch computation per arrival.
type Incremental interface {
	Aggregator
	NewFolder(Spec) (Folder, error)
}

// ResponseCategorical is the response type every current aggregator
// handles: one label from a fixed answer domain.
const ResponseCategorical = "categorical"

// Info describes one registered aggregator for discovery
// (GET /v1/aggregators).
type Info struct {
	Name         string
	Incremental  bool
	ResponseType string
	Description  string
}

// registry maps aggregator name to implementation. Registration happens
// in package init functions; after init the map is read-only, so lookups
// need no lock.
var registry = make(map[string]Aggregator)

// descriptions holds each registered aggregator's one-line summary.
var descriptions = make(map[string]string)

// Register adds an aggregator under its Name. It panics on a duplicate
// or empty name — registration is a package-init-time programming error,
// not a runtime condition.
func Register(a Aggregator, description string) {
	name := a.Name()
	if name == "" {
		panic("aggregate: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("aggregate: duplicate aggregator %q", name))
	}
	registry[name] = a
	descriptions[name] = description
}

// Get resolves a name to its aggregator. The empty name resolves to
// DefaultName.
func Get(name string) (Aggregator, bool) {
	if name == "" {
		name = DefaultName
	}
	a, ok := registry[name]
	return a, ok
}

// Names lists the registered aggregator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos describes every registered aggregator, sorted by name.
func Infos() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range Names() {
		_, inc := registry[name].(Incremental)
		out = append(out, Info{
			Name:         name,
			Incremental:  inc,
			ResponseType: ResponseCategorical,
			Description:  descriptions[name],
		})
	}
	return out
}

// Validate reports whether name resolves to a registered aggregator
// (the empty name is the default and always valid).
func Validate(name string) error {
	if _, ok := Get(name); !ok {
		return fmt.Errorf("aggregate: unknown aggregator %q (registered: %v)", name, Names())
	}
	return nil
}

// sortedQuestionIDs returns the batch's question IDs sorted — the
// deterministic iteration order every batch method uses.
func sortedQuestionIDs(b Batch) []string {
	out := make([]string, 0, len(b.Questions))
	for _, q := range b.Questions {
		out = append(out, q.ID)
	}
	sort.Strings(out)
	return out
}

// agreementQuality computes the share of each worker's votes that match
// the accepted answers — the generic agreement-with-aggregate quality
// estimate the voting methods report.
func agreementQuality(b Batch, verdicts map[string]Verdict) map[string]float64 {
	agree := make(map[string]int)
	total := make(map[string]int)
	for _, id := range sortedQuestionIDs(b) {
		v, ok := verdicts[id]
		if !ok {
			continue
		}
		for _, vote := range b.Votes[id] {
			total[vote.Worker]++
			if vote.Answer == v.Answer {
				agree[vote.Worker]++
			}
		}
	}
	out := make(map[string]float64, len(total))
	for w, n := range total {
		out[w] = float64(agree[w]) / float64(n)
	}
	return out
}
