// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per internal/experiments generator), plus
// micro-benchmarks of the core models and ablation benches for the
// models' design choices. Accuracy-style results are attached as custom
// metrics so `go test -bench` output doubles as a results table.
package cdas_test

import (
	"fmt"
	"testing"

	"cdas"
	"cdas/internal/core/dawidskene"
	"cdas/internal/core/online"
	"cdas/internal/core/prediction"
	"cdas/internal/core/verification"
	"cdas/internal/crowd"
	"cdas/internal/experiments"
	"cdas/internal/randx"
	"cdas/internal/stats"
	"cdas/internal/svm"
	"cdas/internal/textgen"
)

// benchExperiment runs one experiment generator per iteration.
func benchExperiment(b *testing.B, gen experiments.Generator) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := gen(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Verification(b *testing.B)   { benchExperiment(b, experiments.Table4) }
func BenchmarkFigure5CrowdVsSVM(b *testing.B)    { benchExperiment(b, experiments.Figure5) }
func BenchmarkFigure6WorkersNeeded(b *testing.B) { benchExperiment(b, experiments.Figure6) }
func BenchmarkFigure7AccuracyVsWorkers(b *testing.B) {
	benchExperiment(b, experiments.Figure7)
}
func BenchmarkFigure8AccuracyVsRequired(b *testing.B) {
	benchExperiment(b, experiments.Figure8)
}
func BenchmarkFigure9NoAnswerVsWorkers(b *testing.B) {
	benchExperiment(b, experiments.Figure9)
}
func BenchmarkFigure10NoAnswerVsReviews(b *testing.B) {
	benchExperiment(b, experiments.Figure10)
}
func BenchmarkFigure11ArrivalSequences(b *testing.B) {
	benchExperiment(b, experiments.Figure11)
}
func BenchmarkFigure12EarlyTermWorkers(b *testing.B) {
	benchExperiment(b, experiments.Figure12)
}
func BenchmarkFigure13EarlyTermAccuracy(b *testing.B) {
	benchExperiment(b, experiments.Figure13)
}
func BenchmarkFigure14ApprovalVsAccuracy(b *testing.B) {
	benchExperiment(b, experiments.Figure14)
}
func BenchmarkFigure15SamplingAccuracy(b *testing.B) {
	benchExperiment(b, experiments.Figure15)
}
func BenchmarkFigure16SamplingVerification(b *testing.B) {
	benchExperiment(b, experiments.Figure16)
}
func BenchmarkFigure17CrowdVsALIPR(b *testing.B) { benchExperiment(b, experiments.Figure17) }
func BenchmarkFigure18ITAccuracy(b *testing.B)   { benchExperiment(b, experiments.Figure18) }

// --- Micro-benchmarks of the core models ---

func BenchmarkVerify29Votes(b *testing.B) {
	rng := randx.New(1)
	votes := make([]verification.Vote, 29)
	domain := []string{"pos", "neu", "neg"}
	for i := range votes {
		votes[i] = verification.Vote{
			Worker:   fmt.Sprintf("w%d", i),
			Accuracy: 0.4 + 0.5*rng.Float64(),
			Answer:   domain[rng.IntN(3)],
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verification.Verify(votes, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictionBinarySearch(b *testing.B) {
	model, err := prediction.New(0.7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.RequiredWorkers(0.99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.MajorityTail(101, 0.7)
	}
}

func BenchmarkOnlineVerifierStream(b *testing.B) {
	rng := randx.New(2)
	answers := make([]string, 29)
	accs := make([]float64, 29)
	domain := []string{"pos", "neu", "neg"}
	for i := range answers {
		answers[i] = domain[rng.IntN(3)]
		accs[i] = 0.4 + 0.5*rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := online.NewVerifier(29, 3, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		for j := range answers {
			if err := v.Add(verification.Vote{Accuracy: accs[j], Answer: answers[j]}); err != nil {
				b.Fatal(err)
			}
			if v.Terminated(online.ExpMax) {
				break
			}
		}
	}
}

func BenchmarkSimulatedHIT100Questions(b *testing.B) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	questions := make([]crowd.Question, 100)
	for i := range questions {
		questions[i] = crowd.Question{
			ID:     fmt.Sprintf("q%d", i),
			Domain: []string{"a", "b", "c"},
			Truth:  "a",
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := platform.Publish(crowd.HIT{Questions: questions}, 30)
		if err != nil {
			b.Fatal(err)
		}
		run.Drain()
	}
}

func BenchmarkSVMPredict(b *testing.B) {
	tweets, err := textgen.Generate(textgen.Config{
		Seed: 4, Movies: textgen.Movies200()[:20], TweetsPerMovie: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	docs := make([]string, len(tweets))
	labels := make([]string, len(tweets))
	for i, t := range tweets {
		docs[i], labels[i] = t.Text, t.Truth
	}
	model, err := svm.Train(docs, labels, svm.Options{Epochs: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(docs[i%len(docs)])
	}
}

// --- Ablation benches (the models' design choices) ---

// BenchmarkAblationMEstimate compares verification accuracy on a
// 21-answer rating domain when m is taken as |R| = 21 versus Theorem 5's
// pruned estimate, under herding: a handful of accurate workers find the
// truth while a larger group of inaccurate workers piles onto one shared
// wrong answer. Every vote's confidence carries a +ln(m-1) term, so a
// large m rewards sheer vote count and the herd wins; the pruned m lets
// per-worker accuracy dominate — the paper's reason for "selecting a good
// m to prune the noise".
func BenchmarkAblationMEstimate(b *testing.B) {
	rng := randx.New(5)
	domain := make([]string, 21)
	for i := range domain {
		domain[i] = fmt.Sprintf("score-%02d", i)
	}
	type questionVotes struct {
		truth string
		votes []verification.Vote
	}
	const questions = 300
	qs := make([]questionVotes, questions)
	for qi := range qs {
		truth := domain[rng.IntN(len(domain))]
		herd := domain[rng.IntN(len(domain))]
		for herd == truth {
			herd = domain[rng.IntN(len(domain))]
		}
		var votes []verification.Vote
		for i := 0; i < 3; i++ { // accurate minority
			acc := 0.80 + 0.15*rng.Float64()
			answer := truth
			if !rng.Bool(acc) {
				answer = herd
			}
			votes = append(votes, verification.Vote{Worker: fmt.Sprintf("a%d", i), Accuracy: acc, Answer: answer})
		}
		for i := 0; i < 6; i++ { // herding low-accuracy majority
			acc := 0.30 + 0.15*rng.Float64()
			answer := herd
			if rng.Bool(0.2) {
				answer = truth
			}
			votes = append(votes, verification.Vote{Worker: fmt.Sprintf("h%d", i), Accuracy: acc, Answer: answer})
		}
		qs[qi] = questionVotes{truth: truth, votes: votes}
	}
	run := func(m int) float64 {
		correct := 0
		for _, q := range qs {
			res, err := verification.Verify(q.votes, m)
			if err != nil {
				b.Fatal(err)
			}
			if res.Best().Answer == q.truth {
				correct++
			}
		}
		return float64(correct) / questions
	}
	b.ResetTimer()
	var accFull, accPruned float64
	for i := 0; i < b.N; i++ {
		accFull = run(21)
		accPruned = run(0) // 0 -> Theorem 5 estimate
	}
	b.ReportMetric(accFull, "acc-m=|R|")
	b.ReportMetric(accPruned, "acc-m=thm5")
}

// BenchmarkAblationColluders pits the verification model against majority
// voting on a population with 25% colluding workers who coordinate on a
// fixed wrong answer — the Section 1 motivation for not trusting raw
// majorities.
func BenchmarkAblationColluders(b *testing.B) {
	cfg := crowd.DefaultConfig(6)
	cfg.Workers = 200
	cfg.ColluderFraction = 0.25
	cfg.ColludeAnswer = "neg"
	platform, err := crowd.NewPlatform(cfg)
	if err != nil {
		b.Fatal(err)
	}
	questions := make([]crowd.Question, 100)
	for i := range questions {
		questions[i] = crowd.Question{
			ID:     fmt.Sprintf("q%d", i),
			Domain: []string{"pos", "neu", "neg"},
			Truth:  "pos",
		}
	}
	golden := make([]crowd.Question, 30)
	for i := range golden {
		golden[i] = crowd.Question{
			ID:     fmt.Sprintf("g%d", i),
			Domain: []string{"pos", "neu", "neg"},
			Truth:  []string{"pos", "neu", "neg"}[i%3],
		}
	}
	all := append(append([]crowd.Question{}, questions...), golden...)

	b.ResetTimer()
	var verAcc, majAcc float64
	for i := 0; i < b.N; i++ {
		run, err := platform.Publish(crowd.HIT{Questions: all}, 15)
		if err != nil {
			b.Fatal(err)
		}
		assignments := run.Drain()
		est := make(map[string]float64, len(assignments))
		for _, a := range assignments {
			correct := 0
			for _, g := range golden {
				if a.AnswerTo(g.ID) == g.Truth {
					correct++
				}
			}
			est[a.Worker.ID] = float64(correct) / float64(len(golden))
		}
		verCorrect, majCorrect := 0, 0
		for _, q := range questions {
			votes := make([]verification.Vote, 0, len(assignments))
			for _, a := range assignments {
				votes = append(votes, verification.Vote{
					Worker:   a.Worker.ID,
					Accuracy: est[a.Worker.ID],
					Answer:   a.AnswerTo(q.ID),
				})
			}
			if res, err := verification.Verify(votes, 3); err == nil && res.Best().Answer == q.Truth {
				verCorrect++
			}
			if ans, ok := verification.MajorityVoting(votes); ok && ans == q.Truth {
				majCorrect++
			}
		}
		verAcc = float64(verCorrect) / float64(len(questions))
		majAcc = float64(majCorrect) / float64(len(questions))
	}
	b.ReportMetric(verAcc, "acc-verification")
	b.ReportMetric(majAcc, "acc-majority")
}

// BenchmarkAblationTermination reports the average workers consumed by
// each termination strategy on the same vote streams (the cost side of
// Figures 12/13 as a single number).
func BenchmarkAblationTermination(b *testing.B) {
	platform, _, err := cdas.NewSimulatedPlatform(cdas.DefaultSimulatorConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	const planned = 25
	question := cdas.CrowdQuestion{
		ID: "q", Domain: []string{"pos", "neu", "neg"}, Truth: "pos",
	}
	type arrival struct {
		acc    float64
		answer string
	}
	streams := make([][]arrival, 40)
	for s := range streams {
		run, err := platform.Publish(cdas.HIT{Questions: []cdas.CrowdQuestion{question}}, planned)
		if err != nil {
			b.Fatal(err)
		}
		for {
			a, ok := run.Next()
			if !ok {
				break
			}
			streams[s] = append(streams[s], arrival{a.Worker.Accuracy, a.AnswerTo("q")})
		}
	}
	strategies := []cdas.TerminationStrategy{cdas.MinMax, cdas.MinExp, cdas.ExpMax}
	used := make([]float64, len(strategies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, strat := range strategies {
			total := 0
			for _, stream := range streams {
				v, err := cdas.NewOnlineVerifier(planned, 3, 0.75)
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range stream {
					if err := v.Add(cdas.Vote{Accuracy: a.acc, Answer: a.answer}); err != nil {
						b.Fatal(err)
					}
					total++
					if v.Terminated(strat) {
						break
					}
				}
			}
			used[si] = float64(total) / float64(len(streams))
		}
	}
	b.ReportMetric(used[0], "workers-minmax")
	b.ReportMetric(used[1], "workers-minexp")
	b.ReportMetric(used[2], "workers-expmax")
}

// BenchmarkAblationDawidSkene compares three ways of obtaining the vote
// weights the verification model needs: golden-question sampling (the
// paper's Section 3.3), one-coin Dawid-Skene EM on the votes alone (the
// quality-management alternative from the paper's related work), and a
// uniform prior (no weighting information at all).
func BenchmarkAblationDawidSkene(b *testing.B) {
	cfg := crowd.DefaultConfig(8)
	cfg.Workers = 200
	platform, err := crowd.NewPlatform(cfg)
	if err != nil {
		b.Fatal(err)
	}
	domain := []string{"pos", "neu", "neg"}
	questions := make([]crowd.Question, 120)
	for i := range questions {
		questions[i] = crowd.Question{
			ID:     fmt.Sprintf("q%d", i),
			Domain: domain,
			Truth:  domain[i%3],
		}
	}
	golden := make([]crowd.Question, 30)
	for i := range golden {
		golden[i] = crowd.Question{
			ID:     fmt.Sprintf("g%d", i),
			Domain: domain,
			Truth:  domain[i%3],
		}
	}
	all := append(append([]crowd.Question{}, questions...), golden...)

	b.ResetTimer()
	var goldenAcc, emAcc, uniformAcc float64
	for i := 0; i < b.N; i++ {
		run, err := platform.Publish(crowd.HIT{Questions: all}, 11)
		if err != nil {
			b.Fatal(err)
		}
		assignments := run.Drain()

		// Golden-sampling estimates.
		goldenEst := make(map[string]float64, len(assignments))
		for _, a := range assignments {
			correct := 0
			for _, g := range golden {
				if a.AnswerTo(g.ID) == g.Truth {
					correct++
				}
			}
			goldenEst[a.Worker.ID] = float64(correct) / float64(len(golden))
		}

		// EM estimates from the live votes only (no golden needed).
		var dsVotes []dawidskene.Vote
		for _, a := range assignments {
			for _, q := range questions {
				dsVotes = append(dsVotes, dawidskene.Vote{
					Question: q.ID, Worker: a.Worker.ID, Answer: a.AnswerTo(q.ID),
				})
			}
		}
		em, err := dawidskene.Estimate(dsVotes, len(domain), dawidskene.Options{})
		if err != nil {
			b.Fatal(err)
		}

		evaluate := func(acc func(string) float64) float64 {
			correct := 0
			for _, q := range questions {
				votes := make([]verification.Vote, 0, len(assignments))
				for _, a := range assignments {
					votes = append(votes, verification.Vote{
						Worker:   a.Worker.ID,
						Accuracy: acc(a.Worker.ID),
						Answer:   a.AnswerTo(q.ID),
					})
				}
				if res, err := verification.Verify(votes, len(domain)); err == nil && res.Best().Answer == q.Truth {
					correct++
				}
			}
			return float64(correct) / float64(len(questions))
		}
		goldenAcc = evaluate(func(w string) float64 { return goldenEst[w] })
		emAcc = evaluate(func(w string) float64 { return em.WorkerAccuracy[w] })
		uniformAcc = evaluate(func(string) float64 { return 0.7 })
	}
	b.ReportMetric(goldenAcc, "acc-golden")
	b.ReportMetric(emAcc, "acc-dawidskene")
	b.ReportMetric(uniformAcc, "acc-uniform")
}
