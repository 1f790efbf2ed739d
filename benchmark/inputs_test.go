package main

import (
	"testing"

	"cdas/api"
)

func TestSameSeedSameInputsDifferentSeedDifferentInputs(t *testing.T) {
	gens := map[string]func(seed uint64) (*inputs, error){
		"mix":    func(seed uint64) (*inputs, error) { return mixInputs(seed, 200, "t") },
		"commit": func(seed uint64) (*inputs, error) { return commitInputs(seed, 200) },
		"fanout": func(seed uint64) (*inputs, error) { return fanoutInputs(seed, 8, 64) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if a.Hash != b.Hash {
			t.Errorf("%s: seed 7 hashed %s then %s", name, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", name, a.Hash)
		}
	}
}

func TestMixShapeAndParkedShare(t *testing.T) {
	in, err := mixInputs(1, 1000, "t")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, j := range in.Jobs {
		kinds[j.Sub.Kind]++
		if j.Sub.Kind == api.KindTSA && (len(j.Sub.Keywords) != 2 || j.Sub.Keywords[0] == j.Sub.Keywords[1]) {
			t.Fatalf("tsa job %s has keywords %v, want two distinct", j.Sub.Name, j.Sub.Keywords)
		}
	}
	if kinds[api.KindTSA] != 800 || kinds[api.KindContinuous] != 100 || kinds[api.KindEnumeration] != 100 {
		t.Errorf("mix of 1000 jobs is %v, want 800/100/100", kinds)
	}
	if len(in.Stream) != mixMovies*mixTweetsPerMovie {
		t.Errorf("catalogue has %d tweets", len(in.Stream))
	}

	cr, err := commitInputs(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, j := range cr.Jobs {
		if j.Expect == api.JobParked {
			parked++
		}
	}
	if parked != 10 {
		t.Errorf("commit_restart parks %d of 1000 jobs, want 10", parked)
	}
}

func TestReferenceFilterSelectsEachMoviesOwnTweets(t *testing.T) {
	in, err := commitInputs(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefFilter(in.Stream)
	for _, w := range in.Warm {
		got, err := ref.match(w.Sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 8 {
			t.Errorf("%v selects %d tweets, want its movie's 8", w.Sub.Keywords, len(got))
		}
		for _, i := range got {
			if in.Stream[i].Movie != w.Sub.Keywords[0] {
				t.Errorf("%v selected a tweet about %q", w.Sub.Keywords, in.Stream[i].Movie)
			}
		}
	}
	outside := in.Warm[0].Sub
	outside.Start = "2012-01-01T00:00:00Z"
	if got, _ := ref.match(outside); len(got) != 0 {
		t.Errorf("a window after the stream selected %d tweets", len(got))
	}
}
