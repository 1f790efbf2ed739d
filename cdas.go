// Package cdas is a Go implementation of CDAS — the Crowdsourcing Data
// Analytics System of Liu, Lu, Ooi, Shen, Wu and Zhang (PVLDB 5(10),
// 2012) — together with the full substrate the paper evaluates it on.
//
// CDAS answers analytics queries (sentiment classification, image
// tagging, ...) by publishing micro-tasks to a crowd platform and
// guaranteeing a user-specified result accuracy C at minimal cost through
// a quality-sensitive answering model:
//
//   - the prediction model (PlanWorkers) computes the minimum odd number
//     of workers n such that the expected probability of a correct
//     majority reaches C, given the mean worker accuracy μ;
//   - the verification model (Verify) weighs each worker's vote by their
//     historical accuracy via Bayes' rule instead of counting heads, so a
//     single accurate worker can overturn a misled majority;
//   - the online model (NewOnlineVerifier) maintains an approximate
//     answer as votes arrive asynchronously and terminates HITs early —
//     without paying for the forgone answers — once the leader cannot be
//     overtaken (strategies MinMax, MinExp, ExpMax);
//   - worker accuracies are estimated by embedding golden questions with
//     known answers into every HIT (the engine does this transparently).
//
// The package exposes the crowdsourcing engine (NewEngine) over an
// abstract Platform; NewSimulatedPlatform provides the bundled
// discrete-event AMT simulator, and a production deployment would
// implement Platform over a real crowd marketplace.
//
// See the examples directory for runnable end-to-end programs and
// cmd/cdas-experiments for the reproduction of every figure in the
// paper's evaluation.
package cdas

import (
	"net/http"

	"cdas/internal/amtapi"
	"cdas/internal/core/dawidskene"
	"cdas/internal/core/online"
	"cdas/internal/core/prediction"
	"cdas/internal/core/verification"
	"cdas/internal/crowd"
	"cdas/internal/crowdops"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/privacy"
	"cdas/internal/profile"
	"cdas/internal/tsa"
)

// Query is the analytics query of the paper's Definition 1:
// (S, C, R, t, w) — keywords, required accuracy, answer domain, start
// time and window.
type Query = jobs.Query

// Job is a registered analytics job; JobManager validates and plans jobs.
type (
	Job        = jobs.Job
	JobKind    = jobs.Kind
	Plan       = jobs.Plan
	JobManager = jobs.Manager
)

// Job kinds understood by the job manager's plan templates.
const (
	JobTSA      = jobs.KindTSA
	JobImageTag = jobs.KindImageTag
	JobCustom   = jobs.KindCustom
)

// NewJobManager returns an empty job registry.
func NewJobManager() *JobManager { return jobs.NewManager() }

// Durable job service: a job manager whose lifecycle survives restarts
// (WAL + snapshot under ServiceConfig.Dir) with a dispatcher pool that
// executes pending jobs with per-job cancellation.
type (
	JobState         = jobs.State
	JobStatus        = jobs.Status
	JobService       = jobs.Service
	JobServiceConfig = jobs.ServiceConfig
	JobDispatcher    = jobs.Dispatcher
	JobRunner        = jobs.Runner
)

// OpenJobService opens (or creates) a durable job service; see
// jobs.OpenService.
func OpenJobService(cfg JobServiceConfig) (*JobService, error) { return jobs.OpenService(cfg) }

// NewJobDispatcher builds a worker pool draining a service's pending
// jobs through run; see jobs.NewDispatcher.
func NewJobDispatcher(svc *JobService, run JobRunner, workers int) (*JobDispatcher, error) {
	return jobs.NewDispatcher(svc, run, workers)
}

// Vote is one worker's answer weighted by their estimated accuracy.
type (
	Vote               = verification.Vote
	VerificationResult = verification.Result
	Scored             = verification.Scored
)

// Verify ranks the observed answers by the Equation 4 confidence. Pass
// domainSize = |R|, or <= 0 to estimate it from the observation
// (Theorem 5).
func Verify(votes []Vote, domainSize int) (VerificationResult, error) {
	return verification.Verify(votes, domainSize)
}

// HalfVoting is the CrowdDB-style baseline: accept an answer only when at
// least half of the workers return it.
func HalfVoting(votes []Vote) (answer string, ok bool) { return verification.HalfVoting(votes) }

// MajorityVoting accepts the strict plurality answer.
func MajorityVoting(votes []Vote) (answer string, ok bool) { return verification.MajorityVoting(votes) }

// PredictionModel plans crowd sizes for a worker population.
type PredictionModel = prediction.Model

// NewPredictionModel builds a planner for a population with mean worker
// accuracy mu in (0.5, 1].
func NewPredictionModel(mu float64) (*PredictionModel, error) { return prediction.New(mu) }

// PlanWorkers is a convenience for one-off planning: the minimum odd
// number of workers so the expected majority accuracy reaches
// requiredAccuracy, for a population of mean accuracy meanAccuracy.
func PlanWorkers(requiredAccuracy, meanAccuracy float64) (int, error) {
	m, err := prediction.New(meanAccuracy)
	if err != nil {
		return 0, err
	}
	return m.RequiredWorkers(requiredAccuracy)
}

// Economics is the platform fee schedule (m_c per worker, m_s per-worker
// platform surcharge).
type Economics = prediction.Economics

// DefaultEconomics mirrors the paper's $0.01 + 20% fee example.
var DefaultEconomics = prediction.DefaultEconomics

// OnlineVerifier tracks one question's votes as they arrive and decides
// early termination.
type (
	OnlineVerifier      = online.Verifier
	TerminationStrategy = online.Strategy
	TerminationBounds   = online.Bounds
)

// Termination strategies (Section 4.2.2). The paper recommends ExpMax.
const (
	Never  = online.Never
	MinMax = online.MinMax
	MinExp = online.MinExp
	ExpMax = online.ExpMax
)

// NewOnlineVerifier creates a verifier for a question planned to receive
// total answers over a domain of m answers, with population mean accuracy
// meanAccuracy used for the not-yet-seen workers.
func NewOnlineVerifier(total, m int, meanAccuracy float64) (*OnlineVerifier, error) {
	return online.NewVerifier(total, m, meanAccuracy)
}

// Engine types: the crowdsourcing engine and its platform abstraction.
type (
	Engine         = engine.Engine
	EngineConfig   = engine.Config
	Platform       = engine.Platform
	Run            = engine.Run
	BatchResult    = engine.BatchResult
	QuestionResult = engine.QuestionResult
	// StreamResult is one finished HIT from the engine's concurrent
	// pipeline (Engine.Stream); set EngineConfig.MaxInflightHITs to
	// overlap HIT lifetimes on the platform.
	StreamResult = engine.StreamResult
)

// Crowd simulator types (the bundled AMT stand-in).
type (
	SimulatorConfig = crowd.Config
	Worker          = crowd.Worker
	CrowdQuestion   = crowd.Question
	HIT             = crowd.HIT
	Assignment      = crowd.Assignment
)

// ProfileStore persists workers' historical accuracies per job kind.
type ProfileStore = profile.Store

// NewProfileStore returns an empty profile store.
func NewProfileStore() *ProfileStore { return profile.NewStore() }

// PrivacyManager sanitises outgoing question text and bars workers.
type PrivacyManager = privacy.Manager

// NewPrivacyManager returns a manager with default masking patterns.
func NewPrivacyManager() *PrivacyManager { return privacy.NewManager() }

// NewEngine constructs the crowdsourcing engine over a platform. A nil
// store starts with no worker history.
func NewEngine(p Platform, store *ProfileStore, cfg EngineConfig) (*Engine, error) {
	return engine.New(p, store, cfg)
}

// DefaultSimulatorConfig returns the simulator population used throughout
// the paper reproduction: 500 workers, Figure 14-like accuracy and
// approval distributions, the paper's fee schedule.
func DefaultSimulatorConfig(seed uint64) SimulatorConfig { return crowd.DefaultConfig(seed) }

// NewSimulatedPlatform builds the discrete-event AMT simulator and wraps
// it as an engine Platform. The second return value exposes the simulator
// itself (population, spend accounting) for inspection.
func NewSimulatedPlatform(cfg SimulatorConfig) (Platform, *crowd.Platform, error) {
	p, err := crowd.NewPlatform(cfg)
	if err != nil {
		return nil, nil, err
	}
	return engine.CrowdPlatform{Platform: p}, p, nil
}

// RenderHIT renders a HIT as the HTML form published to workers
// (Figure 3's query template).
func RenderHIT(hit HIT) (string, error) { return engine.RenderHIT(hit) }

// Summary is the percentages-plus-reasons presentation of Section 4.3.
type (
	Summary = exec.Summary
	Outcome = exec.Outcome
)

// Summarise aggregates accepted answers into the Table 1 presentation.
// exclude lists words (e.g. the query keywords) to keep out of reasons.
func Summarise(domain []string, outcomes []Outcome, texts map[string]string, exclude ...string) Summary {
	return exec.Summarise(domain, outcomes, texts, exclude...)
}

// TSAResult is one processed sentiment query (accuracy vs ground truth is
// only available on simulated streams).
type TSAResult = tsa.Result

// Dawid–Skene: golden-free worker-accuracy estimation by EM over
// inter-worker agreement (the quality-management alternative from the
// paper's related work; see internal/core/dawidskene).
type (
	ConsensusVote    = dawidskene.Vote
	ConsensusOptions = dawidskene.Options
	ConsensusResult  = dawidskene.Result
)

// EstimateConsensus runs one-coin Dawid–Skene EM over raw votes,
// returning per-worker accuracy estimates and MAP answers without any
// golden questions. m is the answer-domain size |R|.
func EstimateConsensus(votes []ConsensusVote, m int, opts ConsensusOptions) (ConsensusResult, error) {
	return dawidskene.Estimate(votes, m, opts)
}

// Result service: live query summaries over HTTP (Figure 4).
type (
	ResultServer = httpapi.Server
	QueryState   = httpapi.QueryState
)

// NewResultServer returns an empty result service; mount its Handler()
// on an HTTP server.
func NewResultServer() *ResultServer { return httpapi.NewServer() }

// Remote platform: the AMT-shaped REST protocol, for running the engine
// and the crowd marketplace in separate processes.
type (
	RemoteClient = amtapi.Client
	RemoteServer = amtapi.Server
)

// NewRemotePlatform returns a Platform speaking the amtapi REST protocol
// against baseURL. httpClient may be nil for http.DefaultClient.
func NewRemotePlatform(baseURL string, httpClient *http.Client) *RemoteClient {
	return amtapi.NewClient(baseURL, httpClient)
}

// NewRemoteServer exposes a simulated crowd platform over the amtapi REST
// protocol; mount its Handler() on an HTTP server.
func NewRemoteServer(p *crowd.Platform) *RemoteServer { return amtapi.NewServer(p) }

// Crowd-powered relational operators (CrowdDB/Qurk-style), built on the
// engine: filter, join (entity resolution) and sort by pairwise
// comparison.
type (
	OpItem       = crowdops.Item
	FilterResult = crowdops.FilterResult
	JoinPair     = crowdops.JoinPair
)

// CrowdFilter keeps the items the crowd judges to satisfy the predicate.
func CrowdFilter(eng *Engine, predicate string, items []OpItem, golden []CrowdQuestion) ([]FilterResult, error) {
	return crowdops.Filter(eng, predicate, items, golden)
}

// CrowdJoin crowd-matches every (left, right) pair; use Matches to keep
// the accepted ones.
func CrowdJoin(eng *Engine, left, right []OpItem, golden []CrowdQuestion) ([]JoinPair, error) {
	return crowdops.Join(eng, left, right, golden)
}

// Matches filters a CrowdJoin result to the accepted matches.
func Matches(pairs []JoinPair) []JoinPair { return crowdops.Matches(pairs) }

// CrowdSort orders items by crowd pairwise comparisons under the given
// criterion.
func CrowdSort(eng *Engine, criterion string, items []OpItem, golden []CrowdQuestion) ([]OpItem, error) {
	return crowdops.Sort(eng, criterion, items, golden)
}

// Evaluation metrics for comparing crowd answers with ground truth.
type (
	Confusion   = metrics.Confusion
	ClassScores = metrics.ClassScores
)

// NewConfusion returns an empty confusion matrix.
func NewConfusion() *Confusion { return metrics.NewConfusion() }
