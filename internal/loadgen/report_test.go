// The run report and the three results hashes it carries.
package loadgen

import (
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"slices"
	"strconv"

	"cdas/api"
)

// JobsSummary counts the workload's jobs by final state.
type JobsSummary struct {
	Total     int
	Done      int
	Parked    int
	Failed    int
	Cancelled int
	Unsettled int
}

// SchedStats is the scheduler-side accounting of the run.
type SchedStats struct {
	Generations int
	Enqueued    int64
	Published   int64
	Deduped     int64
	CacheHits   int64
	Batches     int64
}

// EnumSummary aggregates an enumeration run's semantic outcome: how
// complete the discovered sets are against their hidden universes, what
// the crowd spend came to, and which stopping rule ended each job.
type EnumSummary struct {
	// Jobs is how many enumeration records the final sweep found.
	Jobs int
	// Batches/Contributions/Distinct sum the per-job HIT batches, crowd
	// contributions and deduped set sizes.
	Batches       int
	Contributions int64
	Distinct      int
	// EstimateTotal sums the per-job Chao92 total-size estimates;
	// MeanCompleteness averages their completeness (distinct/estimate).
	EstimateTotal    float64
	MeanCompleteness float64
	// Spent sums the per-job crowd spend; BudgetTotal the per-job budget
	// caps (0 when unlimited). The marginal-value contract is
	// Spent < BudgetTotal — admission stopped before the money ran out.
	Spent       float64
	BudgetTotal float64
	// StoppedMarginal counts jobs the marginal-value rule ended;
	// StoppedOther every other recorded stop reason.
	StoppedMarginal int
	StoppedOther    int
}

// summarizeEnums folds the final enumeration records into the summary.
// tenantBudget is the profile's per-job cap (0 = unlimited).
func summarizeEnums(sts []api.EnumStatus, tenantBudget float64) EnumSummary {
	s := EnumSummary{Jobs: len(sts), BudgetTotal: tenantBudget * float64(len(sts))}
	var completeness float64
	for _, st := range sts {
		s.Batches += st.Batches
		s.Contributions += st.Contributions
		s.Distinct += st.Distinct
		s.Spent += st.Spent
		if est := st.Estimate; est != nil {
			s.EstimateTotal += est.Total
			completeness += est.Completeness
		}
		switch st.Stopped {
		case api.StopMarginalValue:
			s.StoppedMarginal++
		case "":
		default:
			s.StoppedOther++
		}
	}
	if len(sts) > 0 {
		s.MeanCompleteness = completeness / float64(len(sts))
	}
	return s
}

// Report is one run's result.
type Report struct {
	Outcome
	// Watchers and SSEEvents count the SSE feeds consumed and the events
	// read from them; how many intermediate events a feed coalesces
	// depends on timing, so they are not part of the Outcome.
	Watchers  int
	SSEEvents int64
	Errors    []string
}

// Outcome is what a run settled: a pure function of the profile,
// comparable with ==, and bit-equal across runs and dispatcher counts.
type Outcome struct {
	// ResultsHash fingerprints the run's semantic outcome: every job's
	// final state, cost, item count and result percentages, folded in
	// name order.
	ResultsHash string
	// SpendLedger is the scheduler budget ledger's spend; SpendJobs sums
	// the per-job costs the API reports, in name order. They agree on a
	// settled run up to summation order.
	SpendLedger float64
	SpendJobs   float64
	Jobs        JobsSummary
	Sched       SchedStats
	// QuestionsSubmitted counts submitted questions (batch runs), stream
	// items seen (stream runs) or crowd contributions (enum runs).
	QuestionsSubmitted int
	// Enum summarises an enumeration run (zero for other runs): set
	// completeness against the hidden universes, spend vs budget, and
	// the stopping-rule tally.
	Enum EnumSummary
}

// fingerprint is the FNV-1a hasher behind the three results hashes.
// Floats are rendered at full precision, so any bit of divergence
// shows.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

// write hashes each part followed by a NUL separator.
func (f fingerprint) write(parts ...string) {
	for _, p := range parts {
		f.h.Write([]byte(p))
		f.h.Write([]byte{0})
	}
}

// results hashes a query fold, if any: its item count, then each label
// and percentage in label order.
func (f fingerprint) results(r *api.QueryState) {
	if r == nil {
		return
	}
	f.write(strconv.Itoa(r.Items))
	for _, l := range slices.Sorted(maps.Keys(r.Percentages)) {
		f.write(l, formatFloat(r.Percentages[l]))
	}
}

func (f fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// hashResults folds the final job records, in name order, into the
// determinism fingerprint.
func hashResults(sts []api.JobStatus) string {
	f := newFingerprint()
	for _, st := range sts {
		f.write(st.Name, string(st.State), formatFloat(st.Cost))
		f.results(st.Results)
	}
	return f.String()
}

// hashStreamResults folds the final standing-query records, in name
// order, into the determinism fingerprint: per-stream window counts,
// arrival accounting (seen/matched/dropped/degraded), spend and the
// running fold's percentages.
func hashStreamResults(sts []api.StreamStatus) string {
	f := newFingerprint()
	for _, st := range sts {
		f.write(st.Name, string(st.State),
			strconv.Itoa(st.WindowsClosed),
			strconv.FormatInt(st.Seen, 10),
			strconv.FormatInt(st.Matched, 10),
			strconv.FormatInt(st.Dropped, 10),
			strconv.FormatInt(st.Degraded, 10),
			formatFloat(st.Spent))
		f.results(st.Results)
	}
	return f.String()
}

// hashEnumResults folds the final enumeration records, in name order,
// into the determinism fingerprint: per-job lifecycle outcome, batch
// and contribution counts, spend, stop reason, the Chao92 estimate and
// every discovered member (key, canonical text, count, first batch).
func hashEnumResults(sts []api.EnumStatus) string {
	f := newFingerprint()
	for _, st := range sts {
		f.write(st.Name, string(st.State),
			strconv.Itoa(st.Batches),
			strconv.FormatInt(st.Contributions, 10),
			strconv.Itoa(st.Distinct),
			formatFloat(st.Spent),
			st.Stopped)
		if est := st.Estimate; est != nil {
			f.write(formatFloat(est.Total), formatFloat(est.Completeness))
		}
		for _, it := range st.Items {
			f.write(it.Key, it.Text, strconv.Itoa(it.Count), strconv.Itoa(it.Batch))
		}
	}
	return f.String()
}
