package cdas_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"cdas"
)

func simulated(t *testing.T, seed uint64) (cdas.Platform, *cdas.Engine) {
	t.Helper()
	platform, _, err := cdas.NewSimulatedPlatform(cdas.DefaultSimulatorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cdas.NewEngine(platform, nil, cdas.EngineConfig{
		JobName:          "public-api-test",
		RequiredAccuracy: 0.9,
		HITSize:          20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return platform, eng
}

func TestPlanWorkers(t *testing.T) {
	n, err := cdas.PlanWorkers(0.9, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n%2 != 1 {
		t.Errorf("PlanWorkers = %d, want odd >= 1", n)
	}
	if _, err := cdas.PlanWorkers(0.9, 0.4); err == nil {
		t.Error("uninformative crowd accepted")
	}
	if _, err := cdas.PlanWorkers(2, 0.75); err == nil {
		t.Error("invalid accuracy accepted")
	}
}

func TestVerifyPublicAPI(t *testing.T) {
	votes := []cdas.Vote{
		{Worker: "w1", Accuracy: 0.54, Answer: "pos"},
		{Worker: "w2", Accuracy: 0.31, Answer: "pos"},
		{Worker: "w3", Accuracy: 0.49, Answer: "neu"},
		{Worker: "w4", Accuracy: 0.73, Answer: "neg"},
		{Worker: "w5", Accuracy: 0.46, Answer: "pos"},
	}
	res, err := cdas.Verify(votes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Answer != "neg" {
		t.Errorf("public Verify picked %q, want neg (paper Table 4)", res.Best().Answer)
	}
	if a, ok := cdas.HalfVoting(votes); !ok || a != "pos" {
		t.Errorf("HalfVoting = %q/%v", a, ok)
	}
	if a, ok := cdas.MajorityVoting(votes); !ok || a != "pos" {
		t.Errorf("MajorityVoting = %q/%v", a, ok)
	}
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	_, eng := simulated(t, 21)
	yesNo := []string{"yes", "no"}
	questions := []cdas.CrowdQuestion{
		{ID: "q1", Text: "positive?", Domain: yesNo, Truth: "yes"},
		{ID: "q2", Text: "positive?", Domain: yesNo, Truth: "no"},
	}
	golden := []cdas.CrowdQuestion{
		{ID: "g1", Text: "golden", Domain: yesNo, Truth: "yes"},
		{ID: "g2", Text: "golden", Domain: yesNo, Truth: "no"},
		{ID: "g3", Text: "golden", Domain: yesNo, Truth: "yes"},
		{ID: "g4", Text: "golden", Domain: yesNo, Truth: "no"},
	}
	batch, err := eng.ProcessBatch(questions, golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(batch.Results))
	}
	for _, r := range batch.Results {
		if r.Answer != r.Question.Truth {
			t.Errorf("question %s answered %q, truth %q", r.Question.ID, r.Answer, r.Question.Truth)
		}
	}
	if batch.Cost <= 0 {
		t.Error("no cost recorded")
	}
}

func TestOnlineVerifierPublicAPI(t *testing.T) {
	v, err := cdas.NewOnlineVerifier(10, 2, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := v.Add(cdas.Vote{Worker: "w", Accuracy: 0.9, Answer: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if !v.Terminated(cdas.ExpMax) {
		t.Error("overwhelming evidence should terminate ExpMax")
	}
	if v.Terminated(cdas.Never) {
		t.Error("Never must not terminate early")
	}
}

func TestJobManagerPublicAPI(t *testing.T) {
	m := cdas.NewJobManager()
	q := cdas.Query{
		Keywords:         []string{"iPhone4S"},
		RequiredAccuracy: 0.95,
		Domain:           []string{"Best Ever", "Good", "Not Satisfied"},
		Start:            time.Date(2011, 10, 14, 0, 0, 0, 0, time.UTC),
		Window:           10 * 24 * time.Hour,
	}
	plan, err := m.Register(cdas.Job{Name: "iphone", Kind: cdas.JobTSA, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.HumanTasks) == 0 {
		t.Error("TSA plan missing human tasks")
	}
}

func TestEconomicsPublicAPI(t *testing.T) {
	if got := cdas.DefaultEconomics.PerAssignment(); math.Abs(got-0.012) > 1e-12 {
		t.Errorf("PerAssignment = %v, want 0.012", got)
	}
	model, err := cdas.NewPredictionModel(0.7)
	if err != nil {
		t.Fatal(err)
	}
	n, cost, err := model.PlanCost(cdas.DefaultEconomics, 0.9, 100, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || cost <= 0 {
		t.Errorf("PlanCost = %d workers, $%v", n, cost)
	}
}

func TestRenderHITPublicAPI(t *testing.T) {
	html, err := cdas.RenderHIT(cdas.HIT{
		ID:    "h",
		Title: "demo",
		Questions: []cdas.CrowdQuestion{
			{ID: "q", Text: "pick one", Domain: []string{"a", "b"}, Truth: "a"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "pick one") {
		t.Error("rendered HIT missing question text")
	}
}

func TestSummarisePublicAPI(t *testing.T) {
	s := cdas.Summarise(
		[]string{"pos", "neg"},
		[]cdas.Outcome{{ItemID: "1", Accepted: "pos"}},
		map[string]string{"1": "thor was amazing"},
		"thor",
	)
	if s.Percentages["pos"] != 1 {
		t.Errorf("pos pct = %v", s.Percentages["pos"])
	}
	for _, w := range s.Reasons["pos"] {
		if w == "thor" {
			t.Error("excluded keyword leaked into reasons")
		}
	}
}

func TestProfileStorePublicAPI(t *testing.T) {
	store := cdas.NewProfileStore()
	store.Record("job", "w", true)
	// Estimates are Laplace-smoothed: (1+1)/(1+2).
	if a, ok := store.Accuracy("job", "w"); !ok || math.Abs(a-2.0/3) > 1e-12 {
		t.Errorf("store accuracy = %v/%v, want 2/3", a, ok)
	}
}

func TestPrivacyManagerPublicAPI(t *testing.T) {
	pm := cdas.NewPrivacyManager()
	if got := pm.Sanitize("ping @someone"); strings.Contains(got, "someone") {
		t.Errorf("handle not masked: %q", got)
	}
}

func TestCrowdOpsPublicAPI(t *testing.T) {
	_, eng := simulated(t, 51)
	golden := []cdas.CrowdQuestion{
		{ID: "g1", Domain: []string{"yes", "no"}, Truth: "yes"},
		{ID: "g2", Domain: []string{"yes", "no"}, Truth: "no"},
		{ID: "g3", Domain: []string{"yes", "no"}, Truth: "yes"},
		{ID: "g4", Domain: []string{"yes", "no"}, Truth: "no"},
	}
	items := []cdas.OpItem{
		{ID: "a", Text: "a red apple", FilterTruth: true},
		{ID: "b", Text: "a blue car", FilterTruth: false},
	}
	res, err := cdas.CrowdFilter(eng, "Is this red?", items, golden)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, r := range res {
		if r.Keep == r.Item.FilterTruth {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("crowd filter got %d/2 on trivial items", correct)
	}
	sorted, err := cdas.CrowdSort(eng, "Which is larger?", []cdas.OpItem{
		{ID: "x", Text: "a mouse", Rank: 1},
		{ID: "y", Text: "an elephant", Rank: 2},
	}, golden)
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0].Rank > sorted[1].Rank {
		t.Errorf("crowd sort inverted: %+v", sorted)
	}
}

func TestConsensusPublicAPI(t *testing.T) {
	votes := []cdas.ConsensusVote{
		{Question: "q1", Worker: "w1", Answer: "a"},
		{Question: "q1", Worker: "w2", Answer: "a"},
		{Question: "q1", Worker: "w3", Answer: "b"},
		{Question: "q2", Worker: "w1", Answer: "b"},
		{Question: "q2", Worker: "w2", Answer: "b"},
		{Question: "q2", Worker: "w3", Answer: "a"},
	}
	res, err := cdas.EstimateConsensus(votes, 2, cdas.ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers["q1"] != "a" || res.Answers["q2"] != "b" {
		t.Errorf("consensus answers = %v", res.Answers)
	}
	if res.WorkerAccuracy["w3"] >= res.WorkerAccuracy["w1"] {
		t.Error("the always-disagreeing worker should score lower")
	}
}

func TestMetricsPublicAPI(t *testing.T) {
	c := cdas.NewConfusion()
	c.Add("pos", "pos")
	c.Add("neg", "pos")
	if got := c.Accuracy(); got != 0.5 {
		t.Errorf("accuracy = %v", got)
	}
}

func TestEngineDeterministicUnderSeed(t *testing.T) {
	runOnce := func() []string {
		platform, _, err := cdas.NewSimulatedPlatform(cdas.DefaultSimulatorConfig(77))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cdas.NewEngine(platform, nil, cdas.EngineConfig{
			JobName: "det", HITSize: 20, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := eng.ProcessBatch(
			[]cdas.CrowdQuestion{
				{ID: "q1", Domain: []string{"a", "b", "c"}, Truth: "a"},
				{ID: "q2", Domain: []string{"a", "b", "c"}, Truth: "b"},
			},
			[]cdas.CrowdQuestion{
				{ID: "g1", Domain: []string{"a", "b"}, Truth: "a"},
				{ID: "g2", Domain: []string{"a", "b"}, Truth: "b"},
				{ID: "g3", Domain: []string{"a", "b"}, Truth: "a"},
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(batch.Results))
		for _, r := range batch.Results {
			out = append(out, r.Question.ID+"="+r.Answer)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engine not deterministic: %v vs %v", a, b)
		}
	}
}

// TestServiceFacadesPublicAPI smokes the facade constructors the v1
// stack builds on: the durable job service + dispatcher, the result
// server (the SSE-capable dashboard), the remote-platform pair and the
// crowd-join helpers.
func TestServiceFacadesPublicAPI(t *testing.T) {
	// Job service + dispatcher (in-memory).
	svc, err := cdas.OpenJobService(cdas.JobServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ran := make(chan string, 1)
	disp, err := cdas.NewJobDispatcher(svc, func(ctx context.Context, job cdas.Job, report func(float64, float64)) error {
		report(1, 0)
		ran <- job.Name
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	defer disp.Stop()
	q := cdas.Query{
		Keywords:         []string{"iPhone4S"},
		RequiredAccuracy: 0.9,
		Domain:           []string{"Good", "Bad"},
		Start:            time.Date(2011, 10, 14, 0, 0, 0, 0, time.UTC),
		Window:           24 * time.Hour,
	}
	if _, err := disp.Submit(cdas.Job{Name: "facade", Kind: cdas.JobTSA, Query: q}); err != nil {
		t.Fatal(err)
	}
	select {
	case name := <-ran:
		if name != "facade" {
			t.Errorf("dispatcher ran %q", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher never ran the submitted job")
	}

	// Result server: publish and read back a query state.
	rs := cdas.NewResultServer()
	rs.Update(cdas.QueryState{Name: "facade", Domain: q.Domain, Progress: 0.5})
	if st, ok := rs.Get("facade"); !ok || st.Progress != 0.5 {
		t.Errorf("result server state = %+v (ok=%v)", st, ok)
	}

	// Remote platform pair: the REST server over a simulated crowd and
	// a client constructed for its protocol.
	_, rawSim, err := cdas.NewSimulatedPlatform(cdas.DefaultSimulatorConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if remote := cdas.NewRemoteServer(rawSim); remote == nil {
		t.Fatal("NewRemoteServer returned nil")
	}
	if rc := cdas.NewRemotePlatform("http://127.0.0.1:1", nil); rc == nil {
		t.Fatal("NewRemotePlatform returned nil")
	}

	// Matches filters a join result to accepted pairs.
	pairs := []cdas.JoinPair{{Match: true}, {Match: false}}
	if got := cdas.Matches(pairs); len(got) != 1 || !got[0].Match {
		t.Errorf("Matches = %+v", got)
	}
}
