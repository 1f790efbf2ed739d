package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
	"cdas/internal/textgen"
)

// Every query looks at the one day textgen stamps its tweets into.
var queryStart = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)

const queryWindow = "24h"

// jobSpec is one generated submission and the end state it must reach.
type jobSpec struct {
	Sub    api.JobSubmission
	Expect api.JobState
}

// inputs is everything a workload feeds the program: the tweet stream
// the server filters, the golden pool, the submissions of the set-up
// (Warm) and of the timed phase (Jobs, in submission order).
type inputs struct {
	Stream []textgen.Tweet
	Golden []textgen.Tweet
	Warm   []jobSpec
	Jobs   []jobSpec
	Hash   string
}

// movieNames returns n fixed-width titles, so that no title is a
// substring of another and a keyword matches exactly its own tweets.
func movieNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Reel %04d", i)
	}
	return out
}

// domainVariant returns the sentiment labels plus v extra answers: a
// different answer set is different crowd work, so a variant makes a job
// fresh without growing the stream.
func domainVariant(v int) []string {
	d := append([]string(nil), textgen.Labels...)
	if v > 0 {
		d = append(d, fmt.Sprintf("Mixed-%02d", v))
	}
	return d
}

// zipf draws ranks in [0, n) with weight 1/(rank+1)^s by inverting the
// cumulative weights.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

func tsaSub(name string, keywords, domain []string) api.JobSubmission {
	return api.JobSubmission{
		Name: name, Kind: api.KindTSA, Keywords: keywords,
		RequiredAccuracy: requiredAccuracy, Domain: domain,
		Start: queryStart.Format(time.RFC3339), Window: queryWindow,
	}
}

// internalQuery is the query the server builds from a tsa submission of
// this package, for the direct calls that bypass the API.
func internalQuery(sub api.JobSubmission) jobs.Query {
	window, _ := time.ParseDuration(sub.Window) // generated by this package
	return jobs.Query{Keywords: sub.Keywords, RequiredAccuracy: sub.RequiredAccuracy, Domain: sub.Domain,
		Start: queryStart, Window: window}
}

// golden is the requester's calibration set. Like the crowd it is part
// of the deployment, not of the inputs: the engine sizes every HIT from
// the accuracy it estimates on these questions, so a different set per
// seed would move the price of every question by whole workers.
func golden() ([]textgen.Tweet, error) {
	return textgen.Generate(textgen.Config{
		Seed: deploymentSeed ^ 0x601de4, Movies: []string{"The Calibration Reel"}, TweetsPerMovie: 40,
	})
}

// Mix shape: per ten jobs 8 tsa, 1 continuous, 1 enumeration.
const (
	mixMovies         = 1024
	mixTweetsPerMovie = 8
	mixDomainVariants = 2
)

// mixInputs generates the mixed-kind workload shared by sustained_mix
// and paced_mix: an 8192-tweet catalogue; tsa jobs draw two keywords
// Zipf(1) from it, so hot movies hit the answer cache and the tail buys
// fresh crowd work.
func mixInputs(seed uint64, n int, prefix string) (*inputs, error) {
	movies := movieNames(mixMovies)
	stream, err := textgen.Generate(textgen.Config{Seed: seed, Movies: movies, TweetsPerMovie: mixTweetsPerMovie})
	if err != nil {
		return nil, err
	}
	in := &inputs{Stream: stream}
	if in.Golden, err = golden(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	z := newZipf(len(movies), 1)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%06d", prefix, i)
		var sub api.JobSubmission
		switch i % 10 {
		case 8:
			sub = api.JobSubmission{
				Name: name, Kind: api.KindContinuous, Keywords: []string{movies[z.draw(rng)]},
				RequiredAccuracy: requiredAccuracy, Domain: domainVariant(0),
				Start: queryStart.Format(time.RFC3339), Window: "1m",
				Stream: &api.StreamSpec{Items: 48, Rate: 0.5, WindowCapacity: 5, SourceSeed: rng.Uint64()},
			}
		case 9:
			sub = api.JobSubmission{
				Name: name, Kind: api.KindEnumeration, Keywords: []string{fmt.Sprintf("collection %d", i)},
				Budget: 2,
				Enum:   &api.EnumSpec{ItemValue: 0.05, Universe: 30, SourceSeed: rng.Uint64()},
			}
		default:
			a := z.draw(rng)
			b := z.draw(rng)
			for b == a {
				b = z.draw(rng)
			}
			sub = tsaSub(name, []string{movies[a], movies[b]}, domainVariant(rng.IntN(mixDomainVariants)))
		}
		in.Jobs = append(in.Jobs, jobSpec{Sub: sub, Expect: api.JobDone})
	}
	in.Hash = hashInputs(in)
	return in, nil
}

const (
	commitMovies = 32
	// Every parkEvery-th job asks for the one keyword the set-up left
	// cold, under a budget no HIT fits in: it parks, leaving 1 % of the
	// store live.
	parkEvery = 100
)

// commitInputs generates commit_restart: a 256-tweet stream whose
// keywords the set-up warms, so every timed tsa job is answered from the
// cache — zero crowd work, zero charges, four commits per job.
func commitInputs(seed uint64, n int) (*inputs, error) {
	movies := movieNames(commitMovies)
	stream, err := textgen.Generate(textgen.Config{Seed: seed, Movies: movies, TweetsPerMovie: 8})
	if err != nil {
		return nil, err
	}
	in := &inputs{Stream: stream}
	if in.Golden, err = golden(); err != nil {
		return nil, err
	}
	warm, cold := movies[:commitMovies-1], movies[commitMovies-1]
	for i, m := range warm {
		in.Warm = append(in.Warm, jobSpec{Sub: tsaSub(fmt.Sprintf("warm-%02d", i), []string{m}, domainVariant(0)), Expect: api.JobDone})
	}
	rng := rand.New(rand.NewPCG(seed, 0x636d74))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cr-%06d", i)
		if i%parkEvery == parkEvery-1 {
			sub := tsaSub(name, []string{cold}, domainVariant(0))
			sub.Budget = 1e-6
			in.Jobs = append(in.Jobs, jobSpec{Sub: sub, Expect: api.JobParked})
			continue
		}
		sub := tsaSub(name, []string{warm[rng.IntN(len(warm))]}, domainVariant(0))
		in.Jobs = append(in.Jobs, jobSpec{Sub: sub, Expect: api.JobDone})
	}
	in.Hash = hashInputs(in)
	return in, nil
}

const fanoutKeywords = 4

// fanoutInputs generates fanout_crowd: n one-keyword jobs over a
// fanoutKeywords × tweetsPerKeyword stream; job i uses keyword i mod 4
// and domain variant i div 4, so every job is fresh crowd work.
func fanoutInputs(seed uint64, n, tweetsPerKeyword int) (*inputs, error) {
	movies := movieNames(fanoutKeywords)
	stream, err := textgen.Generate(textgen.Config{Seed: seed, Movies: movies, TweetsPerMovie: tweetsPerKeyword})
	if err != nil {
		return nil, err
	}
	in := &inputs{Stream: stream}
	if in.Golden, err = golden(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sub := tsaSub(fmt.Sprintf("fc-%04d", i), []string{movies[i%fanoutKeywords]}, domainVariant(i/fanoutKeywords))
		in.Jobs = append(in.Jobs, jobSpec{Sub: sub, Expect: api.JobDone})
	}
	in.Hash = hashInputs(in)
	return in, nil
}

// hashInputs fingerprints everything the program will see, so two runs
// can be shown to have had the same inputs.
func hashInputs(in *inputs) string {
	h := sha256.New()
	for _, set := range [][]textgen.Tweet{in.Stream, in.Golden} {
		for _, t := range set {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\n", t.ID, t.Text, t.Truth, t.At.UnixNano())
		}
	}
	enc := json.NewEncoder(h)
	for _, set := range [][]jobSpec{in.Warm, in.Jobs} {
		for _, j := range set {
			_ = enc.Encode(j) // plain data into a hash: cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
