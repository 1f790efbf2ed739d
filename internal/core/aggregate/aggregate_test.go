// Contract tests for the aggregation suite: registry behaviour, the
// property that incremental folding matches batch aggregation, the
// Wawa-reduces-to-majority equivalence, confidence normalisation, and
// bit-equality goldens proving the ported methods (cdas, majority,
// dawid-skene) produce exactly the output of the code they wrap.
package aggregate

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"cdas/internal/core/dawidskene"
	"cdas/internal/core/verification"
)

// randomBatch builds a seeded batch: nq questions over a domain of m
// answers, each receiving 1..maxVotes votes from a pool of workers with
// accuracies in (0.55, 0.95).
func randomBatch(rng *rand.Rand, nq, m, maxVotes int) Batch {
	workers := make([]Vote, 16)
	for i := range workers {
		workers[i] = Vote{
			Worker:   "w" + strconv.Itoa(i),
			Accuracy: 0.55 + 0.4*rng.Float64(),
		}
	}
	b := Batch{Votes: make(map[string][]Vote), MeanAccuracy: 0.75}
	for qi := 0; qi < nq; qi++ {
		id := "q" + strconv.Itoa(qi)
		b.Questions = append(b.Questions, Question{ID: id, M: m})
		n := 1 + rng.IntN(maxVotes)
		perm := rng.Perm(len(workers))[:n]
		for _, wi := range perm {
			v := workers[wi]
			v.Answer = "a" + strconv.Itoa(rng.IntN(m))
			b.Votes[id] = append(b.Votes[id], v)
		}
	}
	return b
}

func verdictsEqual(a, b Verdict) bool {
	if a.Answer != b.Answer || a.Confidence != b.Confidence || len(a.Ranked) != len(b.Ranked) {
		return false
	}
	for i := range a.Ranked {
		if a.Ranked[i] != b.Ranked[i] {
			return false
		}
	}
	return true
}

func TestRegistry(t *testing.T) {
	want := []string{DefaultName, DawidSkeneName, MajorityName, WawaName, ZeroBasedSkillName}
	names := Names()
	for _, n := range want {
		found := false
		for _, have := range names {
			if have == n {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v: missing %q", names, n)
		}
	}
	if len(names) != len(want) {
		t.Errorf("Names() = %v: want exactly %d aggregators", names, len(want))
	}

	// The empty name is the default.
	a, ok := Get("")
	if !ok || a.Name() != DefaultName {
		t.Errorf("Get(\"\") = %v, %v: want the %q aggregator", a, ok, DefaultName)
	}
	if err := Validate(""); err != nil {
		t.Errorf("Validate(\"\") = %v: want nil", err)
	}
	if err := Validate("no-such-method"); err == nil {
		t.Error("Validate(unknown) = nil: want an error naming the registry")
	}

	// Incremental flags: cdas and majority fold; the agreement/EM
	// methods are batch-only.
	wantInc := map[string]bool{
		DefaultName:        true,
		MajorityName:       true,
		WawaName:           false,
		ZeroBasedSkillName: false,
		DawidSkeneName:     false,
	}
	for _, info := range Infos() {
		if info.Incremental != wantInc[info.Name] {
			t.Errorf("Infos(): %s incremental = %v, want %v", info.Name, info.Incremental, wantInc[info.Name])
		}
		if info.ResponseType != ResponseCategorical {
			t.Errorf("Infos(): %s response type = %q, want %q", info.Name, info.ResponseType, ResponseCategorical)
		}
		if info.Description == "" {
			t.Errorf("Infos(): %s has no description", info.Name)
		}
	}
}

// TestIncrementalFoldMatchesBatch is the Incremental contract: folding a
// question's votes one at a time must land on exactly the batch verdict.
func TestIncrementalFoldMatchesBatch(t *testing.T) {
	for _, name := range []string{DefaultName, MajorityName} {
		t.Run(name, func(t *testing.T) {
			agg, _ := Get(name)
			inc, ok := agg.(Incremental)
			if !ok {
				t.Fatalf("%s does not implement Incremental", name)
			}
			rng := rand.New(rand.NewPCG(7, 11))
			for trial := 0; trial < 50; trial++ {
				b := randomBatch(rng, 6, 2+rng.IntN(3), 9)
				batch, err := agg.Aggregate(b)
				if err != nil {
					t.Fatalf("trial %d: Aggregate: %v", trial, err)
				}
				for _, q := range b.Questions {
					votes := b.Votes[q.ID]
					f, err := inc.NewFolder(Spec{Planned: len(votes), M: q.M, MeanAccuracy: b.MeanAccuracy})
					if err != nil {
						t.Fatalf("trial %d %s: NewFolder: %v", trial, q.ID, err)
					}
					for _, v := range votes {
						if err := f.Fold(v); err != nil {
							t.Fatalf("trial %d %s: Fold: %v", trial, q.ID, err)
						}
					}
					if f.Received() != len(votes) {
						t.Fatalf("trial %d %s: Received = %d, want %d", trial, q.ID, f.Received(), len(votes))
					}
					got, err := f.Verdict()
					if err != nil {
						t.Fatalf("trial %d %s: Verdict: %v", trial, q.ID, err)
					}
					if want := batch.Verdicts[q.ID]; !verdictsEqual(got, want) {
						t.Errorf("trial %d %s: folded verdict %+v != batch verdict %+v", trial, q.ID, got, want)
					}
				}
			}
		})
	}
}

// TestFolderLimits: folding past the planned count is a protocol
// violation, and a verdict before any vote is ErrNoVotes.
func TestFolderLimits(t *testing.T) {
	for _, name := range []string{DefaultName, MajorityName} {
		t.Run(name, func(t *testing.T) {
			inc := registry[name].(Incremental)
			f, err := inc.NewFolder(Spec{Planned: 1, M: 2, MeanAccuracy: 0.75})
			if err != nil {
				t.Fatalf("NewFolder: %v", err)
			}
			if _, err := f.Verdict(); err == nil {
				t.Error("Verdict before any fold: want an error")
			}
			if err := f.Fold(Vote{Worker: "w0", Answer: "a0", Accuracy: 0.8}); err != nil {
				t.Fatalf("Fold: %v", err)
			}
			if err := f.Fold(Vote{Worker: "w1", Answer: "a1", Accuracy: 0.8}); err == nil {
				t.Error("Fold past planned: want an overfill error")
			}
			if _, err := inc.NewFolder(Spec{Planned: 0, M: 2, MeanAccuracy: 0.75}); err == nil {
				t.Error("NewFolder with Planned=0: want an error")
			}
		})
	}
}

// TestWawaReducesToMajority: when every worker has the same skill the
// skill-weighted re-vote is a scaled plain count, so Wawa's verdicts —
// answers, confidences and full ranking — equal majority voting's.
func TestWawaReducesToMajority(t *testing.T) {
	wawa, _ := Get(WawaName)
	maj, _ := Get(MajorityName)

	// Construction 1: every vote is unanimous per question, so every
	// worker agrees with the provisional answer on all their votes and
	// all skills are exactly 1.
	rng := rand.New(rand.NewPCG(3, 5))
	unanimous := Batch{Votes: make(map[string][]Vote), MeanAccuracy: 0.75}
	for qi := 0; qi < 8; qi++ {
		id := "q" + strconv.Itoa(qi)
		unanimous.Questions = append(unanimous.Questions, Question{ID: id, M: 3})
		ans := "a" + strconv.Itoa(rng.IntN(3))
		for wi := 0; wi < 1+rng.IntN(5); wi++ {
			unanimous.Votes[id] = append(unanimous.Votes[id], Vote{Worker: "w" + strconv.Itoa(wi), Answer: ans, Accuracy: 0.8})
		}
	}
	// Construction 2: one distinct worker per vote — each worker's only
	// vote is on one question, so each skill is 0 or 1 and, with a lone
	// voter per question, exactly 1.
	lone := Batch{Votes: make(map[string][]Vote), MeanAccuracy: 0.75}
	for qi := 0; qi < 8; qi++ {
		id := "q" + strconv.Itoa(qi)
		lone.Questions = append(lone.Questions, Question{ID: id, M: 4})
		lone.Votes[id] = []Vote{{Worker: "solo" + strconv.Itoa(qi), Answer: "a" + strconv.Itoa(rng.IntN(4)), Accuracy: 0.7}}
	}

	for name, b := range map[string]Batch{"unanimous": unanimous, "lone-voter": lone} {
		wr, err := wawa.Aggregate(b)
		if err != nil {
			t.Fatalf("%s: wawa: %v", name, err)
		}
		mr, err := maj.Aggregate(b)
		if err != nil {
			t.Fatalf("%s: majority: %v", name, err)
		}
		for _, q := range b.Questions {
			if !verdictsEqual(wr.Verdicts[q.ID], mr.Verdicts[q.ID]) {
				t.Errorf("%s %s: wawa %+v != majority %+v with equal skills", name, q.ID, wr.Verdicts[q.ID], mr.Verdicts[q.ID])
			}
		}
	}

	// Randomized conditional check: on any batch where Wawa's estimated
	// skills came out equal, its answers must match majority's.
	rng = rand.New(rand.NewPCG(13, 17))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		b := randomBatch(rng, 4, 2, 5)
		wr, err := wawa.Aggregate(b)
		if err != nil {
			t.Fatalf("trial %d: wawa: %v", trial, err)
		}
		equal := true
		var first float64
		firstSet := false
		for _, s := range wr.WorkerQuality {
			if !firstSet {
				first, firstSet = s, true
			} else if s != first {
				equal = false
			}
		}
		if !equal {
			continue
		}
		checked++
		mr, _ := maj.Aggregate(b)
		for _, q := range b.Questions {
			if wr.Verdicts[q.ID].Answer != mr.Verdicts[q.ID].Answer {
				t.Errorf("trial %d %s: equal skills but wawa answer %q != majority %q", trial, q.ID, wr.Verdicts[q.ID].Answer, mr.Verdicts[q.ID].Answer)
			}
		}
	}
	if checked == 0 {
		t.Error("no random trial produced equal skills; constructions above still cover the reduction")
	}
}

// TestConfidenceNormalisation: the share-based methods distribute all
// probability mass over the observed answers (Ranked sums to 1); the
// CDAS model reserves mass for unobserved answers (sums to <= 1).
func TestConfidenceNormalisation(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 30; trial++ {
		b := randomBatch(rng, 5, 2+rng.IntN(3), 7)
		for _, name := range Names() {
			agg, _ := Get(name)
			res, err := agg.Aggregate(b)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for _, q := range b.Questions {
				v, ok := res.Verdicts[q.ID]
				if !ok {
					t.Fatalf("trial %d %s: no verdict for %s", trial, name, q.ID)
				}
				sum := 0.0
				for i, s := range v.Ranked {
					if s.Confidence < 0 || s.Confidence > 1+1e-9 {
						t.Errorf("trial %d %s %s: confidence %v out of [0,1]", trial, name, q.ID, s.Confidence)
					}
					if i > 0 && s.Confidence > v.Ranked[i-1].Confidence {
						t.Errorf("trial %d %s %s: Ranked not sorted descending", trial, name, q.ID)
					}
					sum += s.Confidence
				}
				if v.Confidence != v.Ranked[0].Confidence || v.Answer != v.Ranked[0].Answer {
					t.Errorf("trial %d %s %s: verdict head %q/%v != Ranked[0] %q/%v",
						trial, name, q.ID, v.Answer, v.Confidence, v.Ranked[0].Answer, v.Ranked[0].Confidence)
				}
				switch name {
				case DefaultName, DawidSkeneName:
					// Both probabilistic models keep mass on answers no
					// worker proposed, so observed confidences sum to <= 1.
					if sum > 1+1e-6 {
						t.Errorf("trial %d %s %s: confidences sum to %v > 1", trial, name, q.ID, sum)
					}
				default:
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("trial %d %s %s: confidences sum to %v, want 1", trial, name, q.ID, sum)
					}
				}
				for _, wq := range res.WorkerQuality {
					if wq < 0 || wq > 1+1e-9 {
						t.Errorf("trial %d %s: worker quality %v out of [0,1]", trial, name, wq)
					}
				}
			}
		}
	}
}

// TestCDASBitIdentical: the ported CDAS aggregator is byte-for-byte the
// Section 4 verification model — exact float equality against
// verification.Verify, ranking included.
func TestCDASBitIdentical(t *testing.T) {
	agg, _ := Get(DefaultName)
	rng := rand.New(rand.NewPCG(31, 37))
	for trial := 0; trial < 50; trial++ {
		b := randomBatch(rng, 6, 2+rng.IntN(4), 9)
		res, err := agg.Aggregate(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, q := range b.Questions {
			direct, err := verification.Verify(b.Votes[q.ID], q.M)
			if err != nil {
				t.Fatalf("trial %d %s: Verify: %v", trial, q.ID, err)
			}
			got := res.Verdicts[q.ID]
			if got.Answer != direct.Best().Answer || got.Confidence != direct.Best().Confidence {
				t.Errorf("trial %d %s: verdict %q/%v != Verify best %q/%v",
					trial, q.ID, got.Answer, got.Confidence, direct.Best().Answer, direct.Best().Confidence)
			}
			if len(got.Ranked) != len(direct.Ranked) {
				t.Fatalf("trial %d %s: ranked lengths differ", trial, q.ID)
			}
			for i := range got.Ranked {
				if got.Ranked[i] != direct.Ranked[i] {
					t.Errorf("trial %d %s: Ranked[%d] = %+v, Verify has %+v", trial, q.ID, i, got.Ranked[i], direct.Ranked[i])
				}
			}
		}
	}
}

// TestMajorityMatchesBaseline: wherever the Figure 9/10 baseline decides
// (a strict, untied majority), the ported aggregator picks the same
// answer.
func TestMajorityMatchesBaseline(t *testing.T) {
	agg, _ := Get(MajorityName)
	rng := rand.New(rand.NewPCG(41, 43))
	decided := 0
	for trial := 0; trial < 100; trial++ {
		b := randomBatch(rng, 4, 2, 7)
		res, err := agg.Aggregate(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, q := range b.Questions {
			baseline, ok := verification.MajorityVoting(b.Votes[q.ID])
			if !ok {
				continue // tie: the baseline abstains, the aggregator must still decide
			}
			decided++
			if got := res.Verdicts[q.ID].Answer; got != baseline {
				t.Errorf("trial %d %s: aggregator %q != MajorityVoting %q", trial, q.ID, got, baseline)
			}
		}
	}
	if decided == 0 {
		t.Fatal("no trial produced an untied majority; generator is broken")
	}
}

// TestDawidSkeneBitIdentical: for a single-m batch the adapter is
// exactly dawidskene.Estimate — posteriors become the ranking and the
// EM worker accuracies become the quality map, bit for bit.
func TestDawidSkeneBitIdentical(t *testing.T) {
	agg, _ := Get(DawidSkeneName)
	rng := rand.New(rand.NewPCG(47, 53))
	for trial := 0; trial < 20; trial++ {
		const m = 3
		b := randomBatch(rng, 6, m, 9)
		res, err := agg.Aggregate(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var votes []dawidskene.Vote
		for _, q := range b.Questions {
			for _, v := range b.Votes[q.ID] {
				votes = append(votes, dawidskene.Vote{Question: q.ID, Worker: v.Worker, Answer: v.Answer})
			}
		}
		direct, err := dawidskene.Estimate(votes, m, dawidskene.Options{})
		if err != nil {
			t.Fatalf("trial %d: Estimate: %v", trial, err)
		}
		for _, q := range b.Questions {
			got := res.Verdicts[q.ID]
			if want := direct.Answers[q.ID]; got.Answer != want {
				t.Errorf("trial %d %s: answer %q != Estimate MAP %q", trial, q.ID, got.Answer, want)
			}
			for _, s := range got.Ranked {
				if post := direct.Posteriors[q.ID][s.Answer]; s.Confidence != post {
					t.Errorf("trial %d %s: ranked confidence of %q = %v, posterior is %v", trial, q.ID, s.Answer, s.Confidence, post)
				}
			}
		}
		for w, acc := range direct.WorkerAccuracy {
			if got := res.WorkerQuality[w]; got != acc {
				t.Errorf("trial %d: worker %s quality %v != EM accuracy %v", trial, w, got, acc)
			}
		}
	}
}

// TestEmptyQuestionsSkipped: questions with no votes get no verdict and
// never fail the batch.
func TestEmptyQuestionsSkipped(t *testing.T) {
	b := Batch{
		Questions: []Question{{ID: "q0", M: 2}, {ID: "empty", M: 2}},
		Votes: map[string][]Vote{
			"q0": {{Worker: "w0", Answer: "yes", Accuracy: 0.8}},
		},
		MeanAccuracy: 0.75,
	}
	for _, name := range Names() {
		agg, _ := Get(name)
		res, err := agg.Aggregate(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := res.Verdicts["empty"]; ok {
			t.Errorf("%s: verdict for a question with no votes", name)
		}
		if v, ok := res.Verdicts["q0"]; !ok || v.Answer != "yes" {
			t.Errorf("%s: q0 verdict = %+v, want answer \"yes\"", name, v)
		}
	}
}
