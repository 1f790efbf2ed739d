// Package textgen synthesises the labelled tweet stream the TSA
// application consumes — the stand-in for the paper's real Twitter data
// with manually checked ground truth (Section 5.1).
//
// Generated tweets carry (a) a movie title so the executor's keyword
// filter has something to match, (b) lexicon words giving a bag-of-words
// learner honest signal, and (c) a configurable fraction of "hard" tweets
// whose surface polarity contradicts the label (sarcasm), which is what
// separates human from machine accuracy in Figure 5 and drags voting
// models below the prediction in Figure 8.
package textgen

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/randx"
)

// Sentiment labels (the answer domain R of the paper's TSA queries).
const (
	LabelPositive = "Positive"
	LabelNeutral  = "Neutral"
	LabelNegative = "Negative"
)

// Labels is the TSA answer domain in display order.
var Labels = []string{LabelPositive, LabelNeutral, LabelNegative}

// Kind classifies how a tweet's surface text relates to its label,
// driving both machine separability and simulated worker difficulty.
type Kind string

// Tweet kinds.
const (
	KindEasy    Kind = "easy"    // surface polarity agrees with the label
	KindHard    Kind = "hard"    // sarcasm: surface is the opposite class
	KindMixed   Kind = "mixed"   // both polarities present; order decides
	KindWeak    Kind = "weak"    // no lexicon signal at all
	KindNeutral Kind = "neutral" // factual, no polarity words
	KindTinged  Kind = "tinged"  // factual but contains a polarity word
)

// Tweet is one labelled synthetic tweet.
type Tweet struct {
	ID    string
	Movie string
	Text  string
	Truth string // one of Labels
	At    time.Time
	Kind  Kind
	// Hard marks sarcastic/inverted tweets; Trap is the surface answer
	// they pull annotators towards ("" when not hard).
	Hard bool
	Trap string
}

// Config parameterises generation.
type Config struct {
	Seed           uint64
	Movies         []string // defaults to Movies200
	TweetsPerMovie int      // default 200 (the paper's per-movie count)
	// Class mix; defaults to 40% positive, 25% neutral, 35% negative.
	PositiveShare, NeutralShare, NegativeShare float64
	// HardFraction of positive/negative tweets use inverted templates.
	// Default 0.10.
	HardFraction float64
	// Start and Span place tweet timestamps uniformly in [Start,
	// Start+Span). Defaults: 2011-10-01, 24h (the paper's one-day
	// queries).
	Start time.Time
	Span  time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Movies) == 0 {
		c.Movies = Movies200()
	}
	if c.TweetsPerMovie == 0 {
		c.TweetsPerMovie = 200
	}
	if c.PositiveShare == 0 && c.NeutralShare == 0 && c.NegativeShare == 0 {
		c.PositiveShare, c.NeutralShare, c.NegativeShare = 0.40, 0.25, 0.35
	}
	if c.HardFraction == 0 {
		c.HardFraction = 0.10
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Span == 0 {
		c.Span = 24 * time.Hour
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	total := c.PositiveShare + c.NeutralShare + c.NegativeShare
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("textgen: class shares must sum to 1, got %v", total)
	}
	if c.PositiveShare < 0 || c.NeutralShare < 0 || c.NegativeShare < 0 {
		return fmt.Errorf("textgen: class shares must be non-negative")
	}
	if c.HardFraction < 0 || c.HardFraction > 1 {
		return fmt.Errorf("textgen: hard fraction %v outside [0,1]", c.HardFraction)
	}
	if c.TweetsPerMovie < 0 {
		return fmt.Errorf("textgen: tweets per movie must be >= 0")
	}
	return nil
}

// Generate produces the full labelled stream: TweetsPerMovie tweets for
// every movie, deterministically under Config.Seed.
func Generate(cfg Config) ([]Tweet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := randx.New(cfg.Seed)
	tweets := make([]Tweet, 0, len(cfg.Movies)*cfg.TweetsPerMovie)
	for _, movie := range cfg.Movies {
		movieRNG := rng.Split("movie/" + movie)
		for i := 0; i < cfg.TweetsPerMovie; i++ {
			tw := generateOne(movieRNG, cfg, movie)
			tw.ID = fmt.Sprintf("%s#%03d", strings.ReplaceAll(movie, " ", ""), i)
			tweets = append(tweets, tw)
		}
	}
	return tweets, nil
}

// Sub-kind mix within the positive/negative classes. Easy tweets take the
// remaining share after hard (Config.HardFraction), mixed and weak.
const (
	mixedShare  = 0.15
	weakShare   = 0.05
	tingedShare = 0.30 // of neutral tweets
	// misspellRate is the chance a polarity word is rendered with a
	// random distortion ("terrrible"): humans read through it, a unigram
	// model sees an unknown token — the informal-text noise that capped
	// LIBSVM on real tweets.
	misspellRate = 0.55
)

func generateOne(rng *randx.Source, cfg Config, movie string) Tweet {
	at := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Span)))
	class := rng.WeightedChoice([]float64{cfg.PositiveShare, cfg.NeutralShare, cfg.NegativeShare})
	if class == 1 {
		return neutralTweet(rng, movie, at)
	}
	truth := LabelPositive
	if class == 2 {
		truth = LabelNegative
	}
	u := rng.Float64()
	switch {
	case u < cfg.HardFraction:
		return hardTweet(rng, movie, at, truth)
	case u < cfg.HardFraction+mixedShare:
		return mixedTweet(rng, movie, at, truth)
	case u < cfg.HardFraction+mixedShare+weakShare:
		return weakTweet(rng, movie, at, truth)
	}
	return easyTweet(rng, movie, at, truth)
}

// polarityWord draws a (possibly distorted) word of the given class.
func polarityWord(rng *randx.Source, label string) string {
	lexicon := positiveWords
	if label == LabelNegative {
		lexicon = negativeWords
	}
	w := randx.Choice(rng, lexicon)
	if rng.Bool(misspellRate) {
		w = distort(rng, w)
	}
	return w
}

// distort applies two or three stacked typo-style edits (duplicated
// letter, dropped letter, swapped adjacent letters, stretched letter).
// A single edit yields only ~20 variants per word — few enough for a
// corpus-scale learner to memorise — whereas stacked edits explode
// combinatorially, so almost every distorted token is unseen at test
// time, like real tweet typos.
func distort(rng *randx.Source, w string) string {
	edits := 2 + rng.IntN(2)
	for e := 0; e < edits; e++ {
		if len(w) < 4 {
			return w
		}
		b := []byte(w)
		switch rng.IntN(4) {
		case 0: // duplicate a letter
			i := rng.IntN(len(b))
			b = append(b[:i+1], b[i:]...)
		case 1: // drop a letter
			i := 1 + rng.IntN(len(b)-2)
			b = append(b[:i], b[i+1:]...)
		case 2: // swap adjacent letters
			i := 1 + rng.IntN(len(b)-2)
			b[i], b[i+1] = b[i+1], b[i]
		default: // stretch a letter
			i := rng.IntN(len(b))
			b = append(b[:i+1], b[i:]...)
			b = append(b[:i+1], b[i:]...)
		}
		w = string(b)
	}
	return w
}

// easyTweet uses a class-shared polarity template; the lexicon word is
// the only class signal.
func easyTweet(rng *randx.Source, movie string, at time.Time, truth string) Tweet {
	text := fill(randx.Choice(rng, polarityTemplates), movie, func() string {
		return polarityWord(rng, truth)
	})
	return Tweet{Movie: movie, Text: text, Truth: truth, At: at, Kind: KindEasy}
}

// hardTweet renders the sarcasm case: the same templates, but the surface
// word belongs to the OPPOSITE class — indistinguishable from an easy
// tweet of the other class for any surface reader, per the paper's Last
// Airbender example.
func hardTweet(rng *randx.Source, movie string, at time.Time, truth string) Tweet {
	tw := easyTweet(rng, movie, at, opposite(truth))
	tw.Truth = truth
	tw.Kind = KindHard
	tw.Hard = true
	tw.Trap = opposite(truth)
	return tw
}

// mixedTweet fills a shared template with one word of each polarity; the
// truth follows the final ({w2}) word's class, so the bag of words is
// balanced and only reading order disambiguates.
func mixedTweet(rng *randx.Source, movie string, at time.Time, truth string) Tweet {
	tpl := randx.Choice(rng, mixedPolarityTemplates)
	text := strings.ReplaceAll(tpl, "{m}", movie)
	text = strings.Replace(text, "{w1}", polarityWord(rng, opposite(truth)), 1)
	text = strings.Replace(text, "{w2}", polarityWord(rng, truth), 1)
	return Tweet{Movie: movie, Text: text, Truth: truth, At: at, Kind: KindMixed}
}

// weakTweet carries no lexicon signal; its label is the class the tweet
// was drawn for, but nothing in the text reveals it.
func weakTweet(rng *randx.Source, movie string, at time.Time, truth string) Tweet {
	text := strings.ReplaceAll(randx.Choice(rng, weakTemplates), "{m}", movie)
	return Tweet{Movie: movie, Text: text, Truth: truth, At: at, Kind: KindWeak}
}

func neutralTweet(rng *randx.Source, movie string, at time.Time) Tweet {
	if rng.Bool(tingedShare) {
		tpl := randx.Choice(rng, tingedNeutralTemplates)
		text := strings.ReplaceAll(tpl, "{m}", movie)
		for strings.Contains(text, "{w}") {
			text = strings.Replace(text, "{w}", polarityWord(rng, randx.Choice(rng, []string{LabelPositive, LabelNegative})), 1)
		}
		return Tweet{Movie: movie, Text: text, Truth: LabelNeutral, At: at, Kind: KindTinged}
	}
	text := fill(randx.Choice(rng, neutralTemplates), movie, func() string {
		return randx.Choice(rng, neutralWords)
	})
	return Tweet{Movie: movie, Text: text, Truth: LabelNeutral, At: at, Kind: KindNeutral}
}

func opposite(label string) string {
	if label == LabelPositive {
		return LabelNegative
	}
	return LabelPositive
}

// fill substitutes {m} with the movie title and every {w} with a fresh
// lexicon word.
func fill(template, movie string, word func() string) string {
	out := strings.ReplaceAll(template, "{m}", movie)
	for strings.Contains(out, "{w}") {
		out = strings.Replace(out, "{w}", word(), 1)
	}
	return out
}

// Question converts a tweet into the crowd question the engine publishes,
// over its own copy of the sentiment labels; see QuestionIn.
func (t Tweet) Question() crowd.Question {
	return t.QuestionIn(append([]string(nil), Labels...))
}

// QuestionIn converts a tweet into the crowd question the engine
// publishes, answered over domain, with per-kind difficulty reflecting
// how much context a human needs. Hard tweets carry a trap pulling
// workers to the surface answer; mixed/weak/tinged tweets raise
// difficulty without a systematic pull. The question holds domain
// itself, not a copy: a job's questions share one read-only domain.
func (t Tweet) QuestionIn(domain []string) crowd.Question {
	q := crowd.Question{
		ID:     t.ID,
		Text:   t.Text,
		Domain: domain,
		Truth:  t.Truth,
	}
	switch {
	case t.Kind == KindHard || t.Hard:
		q.Trap = t.Trap
		q.TrapStrength = 0.55 // most workers fall for surface polarity...
		q.Difficulty = 0.2    // ...and even resistant ones find it harder
	case t.Kind == KindMixed:
		q.Difficulty = 0.35
	case t.Kind == KindWeak:
		q.Difficulty = 0.5
	case t.Kind == KindTinged:
		q.Difficulty = 0.25
	default:
		q.Difficulty = 0.05 // light noise on easy/neutral tweets
	}
	return q
}
