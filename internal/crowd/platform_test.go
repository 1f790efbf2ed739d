package crowd

import (
	"errors"
	"math"
	"testing"

	"cdas/internal/randx"
	"cdas/internal/stats"
)

func testPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func binaryQuestion(id string) Question {
	return Question{ID: id, Domain: []string{"yes", "no"}, Truth: "yes"}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.AccuracyLo, c.AccuracyHi = 0.9, 0.2 },
		func(c *Config) { c.ApprovalAlpha = 0 },
		func(c *Config) { c.MeanDelay = 0 },
		func(c *Config) { c.SpeedLo = 0 },
		func(c *Config) { c.SpeedHi = 0.1 },
		func(c *Config) { c.SpammerFraction = -0.1 },
		func(c *Config) { c.SpammerFraction, c.ColluderFraction = 0.7, 0.7 },
		func(c *Config) { c.Economics.WorkerFee = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := NewPlatform(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPopulationShape(t *testing.T) {
	p := testPlatform(t, DefaultConfig(42))
	if got := len(p.Workers()); got != 500 {
		t.Fatalf("population = %d, want 500", got)
	}
	accs := make([]float64, 0, 500)
	for _, w := range p.Workers() {
		if w.Accuracy < 0.28 || w.Accuracy > 0.98 {
			t.Fatalf("worker accuracy %v outside configured bounds", w.Accuracy)
		}
		if w.ApprovalRate < 0 || w.ApprovalRate > 1 {
			t.Fatalf("approval rate %v outside [0,1]", w.ApprovalRate)
		}
		accs = append(accs, w.Accuracy)
	}
	if mu := stats.Mean(accs); math.Abs(mu-0.72) > 0.03 {
		t.Errorf("population mean accuracy %v, want ~0.72", mu)
	}
	if got := p.MeanAccuracy(); math.Abs(got-stats.Mean(accs)) > 1e-12 {
		t.Errorf("MeanAccuracy mismatch")
	}
}

func TestApprovalRateSkewsHigherThanAccuracy(t *testing.T) {
	// The Figure 14 divergence: mean approval rate well above mean
	// accuracy.
	p := testPlatform(t, DefaultConfig(42))
	var acc, app float64
	for _, w := range p.Workers() {
		acc += w.Accuracy
		app += w.ApprovalRate
	}
	n := float64(len(p.Workers()))
	if app/n < acc/n+0.1 {
		t.Errorf("approval mean %v not clearly above accuracy mean %v", app/n, acc/n)
	}
}

func TestPublishDeliversAllInTimeOrder(t *testing.T) {
	p := testPlatform(t, DefaultConfig(7))
	run, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q1")}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	seen := make(map[string]bool)
	count := 0
	for {
		a, ok := run.Next()
		if !ok {
			break
		}
		count++
		if a.SubmitTime < prev {
			t.Fatalf("assignments out of order: %v after %v", a.SubmitTime, prev)
		}
		prev = a.SubmitTime
		if seen[a.Worker.ID] {
			t.Fatalf("worker %s delivered twice", a.Worker.ID)
		}
		seen[a.Worker.ID] = true
		if got := a.AnswerTo("q1"); got != "yes" && got != "no" {
			t.Fatalf("answer %q outside domain", got)
		}
	}
	if count != 30 {
		t.Errorf("delivered %d assignments, want 30", count)
	}
	if run.Outstanding() != 0 || run.Delivered() != 30 {
		t.Errorf("bookkeeping: outstanding=%d delivered=%d", run.Outstanding(), run.Delivered())
	}
}

func TestPublishValidation(t *testing.T) {
	p := testPlatform(t, DefaultConfig(7))
	if _, err := p.Publish(HIT{}, 3); !errors.Is(err, ErrNoQuestions) {
		t.Errorf("empty HIT err = %v", err)
	}
	if _, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 501); !errors.Is(err, ErrNotEnoughWork) {
		t.Errorf("oversubscription err = %v", err)
	}
	badQ := Question{ID: "q", Domain: []string{"only"}, Truth: "only"}
	if _, err := p.Publish(HIT{Questions: []Question{badQ}}, 3); err == nil {
		t.Error("single-answer domain should fail validation")
	}
}

func TestQuestionValidate(t *testing.T) {
	good := Question{ID: "q", Domain: []string{"a", "b"}, Truth: "a"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid question rejected: %v", err)
	}
	cases := []Question{
		{ID: "q", Domain: []string{"a", "b"}, Truth: "c"},
		{ID: "q", Domain: []string{"a"}, Truth: "a"},
		{ID: "q", Domain: []string{"a", "b"}, Truth: "a", Difficulty: 1.5},
		{ID: "q", Domain: []string{"a", "b"}, Truth: "a", TrapStrength: -0.5},
		{ID: "q", Domain: []string{"a", "b"}, Truth: "a", Trap: "z", TrapStrength: 0.5},
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("invalid question %d accepted", i)
		}
	}
}

func TestEconomicsCharging(t *testing.T) {
	cfg := DefaultConfig(7)
	p := testPlatform(t, cfg)
	run, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	fee := cfg.Economics.PerAssignment()
	for i := 0; i < 4; i++ {
		run.Next()
	}
	if got, want := run.Charged(), 4*fee; math.Abs(got-want) > 1e-12 {
		t.Errorf("charged %v, want %v", got, want)
	}
	run.Cancel()
	if _, ok := run.Next(); ok {
		t.Error("Next after Cancel should fail")
	}
	if got, want := run.Charged(), 4*fee; math.Abs(got-want) > 1e-12 {
		t.Errorf("cancel changed charges: %v, want %v", got, want)
	}
	if got, want := p.TotalSpent(), 4*fee; math.Abs(got-want) > 1e-12 {
		t.Errorf("platform spend %v, want %v", got, want)
	}
	if run.Outstanding() != 0 || !run.Cancelled() {
		t.Error("cancel bookkeeping wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	collect := func() []string {
		p := testPlatform(t, DefaultConfig(11))
		run, err := p.Publish(HIT{ID: "fixed", Questions: []Question{binaryQuestion("q")}}, 20)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, a := range run.Drain() {
			out = append(out, a.Worker.ID+":"+a.AnswerTo("q"))
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestHonestAccuracyIsRespected(t *testing.T) {
	// A single honest worker with accuracy 0.8 answering many questions
	// should land near 0.8 correct.
	w := &Worker{ID: "w", Accuracy: 0.8}
	rng := randx.New(3)
	q := Question{ID: "q", Domain: []string{"a", "b", "c"}, Truth: "a"}
	correct := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if w.Answer(rng, q) == "a" {
			correct++
		}
	}
	if got := float64(correct) / trials; math.Abs(got-0.8) > 0.01 {
		t.Errorf("empirical accuracy %v, want ~0.8", got)
	}
}

func TestDifficultyDegradesToChance(t *testing.T) {
	w := &Worker{ID: "w", Accuracy: 0.9}
	rng := randx.New(4)
	q := Question{ID: "q", Domain: []string{"a", "b", "c"}, Truth: "a", Difficulty: 1}
	correct := 0
	const trials = 30000
	for i := 0; i < trials; i++ {
		if w.Answer(rng, q) == "a" {
			correct++
		}
	}
	if got := float64(correct) / trials; math.Abs(got-1.0/3) > 0.01 {
		t.Errorf("difficulty-1 accuracy %v, want ~1/3", got)
	}
}

func TestTrapPullsWorkersToWrongAnswer(t *testing.T) {
	// The Last Airbender effect: surface sarcasm drags inaccurate workers
	// to the trap answer, while accurate workers mostly see through it
	// (Table 3's high-accuracy worker answers correctly).
	rng := randx.New(5)
	q := Question{ID: "q", Domain: []string{"pos", "neu", "neg"}, Truth: "pos",
		Trap: "neg", TrapStrength: 0.7}
	trapRate := func(acc float64) float64 {
		w := &Worker{ID: "w", Accuracy: acc}
		trap := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			if w.Answer(rng, q) == "neg" {
				trap++
			}
		}
		return float64(trap) / trials
	}
	weak := trapRate(0.35) // expected trap prob min(1, 2*0.7*0.65) = 0.91
	if weak < 0.8 {
		t.Errorf("weak-worker trap rate %v, want >= 0.8", weak)
	}
	strong := trapRate(0.92) // expected trap prob 2*0.7*0.08 = 0.112
	if strong > 0.25 {
		t.Errorf("strong-worker trap rate %v, want <= 0.25", strong)
	}
	if strong >= weak {
		t.Error("trap susceptibility must fall with accuracy")
	}
}

func TestBehaviors(t *testing.T) {
	rng := randx.New(6)
	q := Question{ID: "q", Domain: []string{"a", "b", "c"}, Truth: "a"}
	spam := &Worker{ID: "s", Behavior: Spammer}
	counts := map[string]int{}
	for i := 0; i < 30000; i++ {
		counts[spam.Answer(rng, q)]++
	}
	for _, d := range q.Domain {
		if f := float64(counts[d]) / 30000; math.Abs(f-1.0/3) > 0.02 {
			t.Errorf("spammer frequency of %q = %v, want ~1/3", d, f)
		}
	}
	adv := &Worker{ID: "a", Behavior: Adversarial, Accuracy: 0.99}
	for i := 0; i < 1000; i++ {
		if adv.Answer(rng, q) == "a" {
			t.Fatal("adversarial worker answered correctly")
		}
	}
	col := &Worker{ID: "c", Behavior: Colluder, ColludeAnswer: "b"}
	for i := 0; i < 100; i++ {
		if got := col.Answer(rng, q); got != "b" {
			t.Fatalf("colluder answered %q, want b", got)
		}
	}
	// Colluder whose answer is outside the domain falls back to random.
	colBad := &Worker{ID: "c2", Behavior: Colluder, ColludeAnswer: "zzz"}
	if got := colBad.Answer(rng, q); got != "a" && got != "b" && got != "c" {
		t.Errorf("out-of-domain colluder answered %q", got)
	}
}

func TestBehaviorFractions(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.SpammerFraction = 0.1
	cfg.AdversarialFraction = 0.05
	cfg.ColluderFraction = 0.05
	cfg.ColludeAnswer = "no"
	p := testPlatform(t, cfg)
	counts := map[Behavior]int{}
	for _, w := range p.Workers() {
		counts[w.Behavior]++
	}
	if counts[Spammer] != 50 || counts[Adversarial] != 25 || counts[Colluder] != 25 {
		t.Errorf("behaviour counts = %v", counts)
	}
	if counts[Honest] != 400 {
		t.Errorf("honest = %d, want 400", counts[Honest])
	}
}

func TestAutoHITIDs(t *testing.T) {
	p := testPlatform(t, DefaultConfig(1))
	r1, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HIT().ID == "" || r1.HIT().ID == r2.HIT().ID {
		t.Errorf("auto IDs not unique: %q vs %q", r1.HIT().ID, r2.HIT().ID)
	}
}

func TestAnswerToUnknownQuestion(t *testing.T) {
	a := Assignment{Answers: []Answer{{QuestionID: "q", Value: "x"}}}
	if got := a.AnswerTo("nope"); got != "" {
		t.Errorf("AnswerTo(unknown) = %q, want empty", got)
	}
}

// TestAnswerAtChecksThePosition: a positional read trusts Answers[p] only
// when it carries the asked-for ID, and otherwise answers as AnswerTo.
func TestAnswerAtChecksThePosition(t *testing.T) {
	a := Assignment{Answers: []Answer{{QuestionID: "b", Value: "vb"}, {QuestionID: "a", Value: "va"}}}
	for _, c := range []struct {
		p        int
		id, want string
	}{
		{0, "b", "vb"}, {1, "a", "va"}, // in place
		{0, "a", "va"}, {1, "b", "vb"}, // out of place: the scan finds it
		{5, "a", "va"}, {0, "nope", ""}, // past the end; unknown
	} {
		if got := a.AnswerAt(c.p, c.id); got != c.want {
			t.Errorf("AnswerAt(%d, %q) = %q, want %q", c.p, c.id, got, c.want)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{
		Honest: "honest", Spammer: "spammer", Adversarial: "adversarial",
		Colluder: "colluder", Behavior(9): "Behavior(9)",
	} {
		if got := b.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(b), got, want)
		}
	}
}

func TestDrain(t *testing.T) {
	p := testPlatform(t, DefaultConfig(13))
	run, err := p.Publish(HIT{Questions: []Question{binaryQuestion("q")}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	run.Next()
	rest := run.Drain()
	if len(rest) != 4 {
		t.Errorf("Drain returned %d, want 4", len(rest))
	}
	if more := run.Drain(); len(more) != 0 {
		t.Errorf("second Drain returned %d, want 0", len(more))
	}
}
