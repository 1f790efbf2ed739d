package httpapi

import (
	"context"
	"fmt"
	"testing"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/textutil"
)

// TestFollowStreams runs a real pipeline into Follow and checks the
// published live state: progress reaches done, items add up, and the
// returned batches come back in batch order.
func TestFollowStreams(t *testing.T) {
	cfg := crowd.DefaultConfig(51)
	cfg.Workers = 200
	sim, err := crowd.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.CrowdPlatform{Platform: sim}, nil, engine.Config{
		JobName:         "tsa",
		HITSize:         10,
		SamplingRate:    0.2,
		MaxInflightHITs: 4,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	domain := []string{"pos", "neu", "neg"}
	questions := make([]crowd.Question, 24)
	texts := make(map[string]string, len(questions))
	for i := range questions {
		id := fmt.Sprintf("q%02d", i)
		questions[i] = crowd.Question{ID: id, Text: "tweet " + id, Domain: domain, Truth: "pos"}
		texts[id] = "a wonderful movie moment"
	}
	golden := make([]crowd.Question, 10)
	for i := range golden {
		golden[i] = crowd.Question{ID: fmt.Sprintf("g%02d", i), Domain: domain, Truth: "neg"}
	}

	ch, err := eng.Stream(context.Background(), questions, golden)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	fold, tokens := textFold(domain, texts)
	batches, err := server.Follow("panda", fold, tokens, len(questions), ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 { // 24 questions / 8 real slots
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	for i := 1; i < len(batches); i++ {
		if batches[i-1].HITID >= batches[i].HITID {
			t.Errorf("batches out of order: %s before %s", batches[i-1].HITID, batches[i].HITID)
		}
	}
	st, ok := server.Get("panda")
	if !ok {
		t.Fatal("query state missing after Follow")
	}
	if !st.Done || st.Progress != 1 {
		t.Errorf("state not done: done=%v progress=%v", st.Done, st.Progress)
	}
	if st.Items != len(questions) {
		t.Errorf("items = %d, want %d", st.Items, len(questions))
	}
	sum := 0.0
	for _, p := range st.Percentages {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("percentages sum to %v, want ~1", sum)
	}
	if st.Error != "" {
		t.Errorf("healthy stream published error %q", st.Error)
	}
	reasons := 0
	for answer, words := range st.Reasons {
		reasons++
		if len(words) != 3 || words[0] != "moment" || words[1] != "movie" || words[2] != "wonderful" {
			t.Errorf("reasons for %q = %q, want every item's content words tied, in word order", answer, words)
		}
	}
	if reasons == 0 {
		t.Error("no reasons published: the items' tokens did not reach the fold")
	}
}

// textFold numbers texts' content tokens in a frozen vocabulary, as a
// prepared stream does, and returns a fold over it with the lookup
// Follow reads each verdict's tokens through.
func textFold(domain []string, texts map[string]string) (*exec.Fold, func(string) ([]uint32, bool)) {
	vocab := textutil.NewVocab()
	ids := make(map[string][]uint32, len(texts))
	for id, text := range texts {
		ids[id] = vocab.AppendContent(nil, textutil.Fold(text))
	}
	vocab.Freeze()
	return exec.NewFoldOver(vocab, domain), func(id string) ([]uint32, bool) {
		tokens, ok := ids[id]
		return tokens, ok
	}
}

// TestFollowSurfacesFailure: a cancelled stream must not present as 100%
// complete — the state ends done with the error attached and the real
// (zero) progress.
func TestFollowSurfacesFailure(t *testing.T) {
	cfg := crowd.DefaultConfig(52)
	cfg.Workers = 200
	sim, err := crowd.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.CrowdPlatform{Platform: sim}, nil, engine.Config{
		JobName:         "tsa",
		HITSize:         10,
		SamplingRate:    0.2,
		MaxInflightHITs: 2,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	domain := []string{"pos", "neg"}
	questions := make([]crowd.Question, 16)
	for i := range questions {
		questions[i] = crowd.Question{ID: fmt.Sprintf("q%02d", i), Domain: domain, Truth: "pos"}
	}
	golden := []crowd.Question{{ID: "g0", Domain: domain, Truth: "neg"}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival: every batch surfaces context.Canceled
	ch, err := eng.Stream(ctx, questions, golden)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	batches, err := server.Follow("doomed", exec.NewFold(domain), nil, len(questions), ch)
	if err == nil {
		t.Fatal("Follow swallowed the stream failure")
	}
	if len(batches) != 0 {
		t.Errorf("cancelled stream produced %d batches", len(batches))
	}
	st, ok := server.Get("doomed")
	if !ok {
		t.Fatal("query state missing after failed Follow")
	}
	if !st.Done || st.Error == "" {
		t.Errorf("failed stream state: done=%v error=%q, want done with error", st.Done, st.Error)
	}
	if st.Progress != 0 {
		t.Errorf("failed stream progress = %v, want 0", st.Progress)
	}
}
