// Deterministic workload construction: every tenant's question set,
// domain variant, priority, budget and watcher flag is a pure function
// of the profile — the harness can replay a workload bit for bit from
// its seed.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"cdas/api"
	"cdas/internal/textgen"
)

// Tenant is one synthetic requester.
type Tenant struct {
	// Index is the tenant's position (0-based); Name its job-name stem
	// ("t007" — round r submits "t007-r<r>" for r > 0).
	Index int
	Name  string
	// DomainVariant selects the tenant's answer-domain spelling; only
	// tenants of one variant share crowd work.
	DomainVariant int
	Domain        []string
	// Keywords are the synthetic movie names whose tweets form the
	// tenant's question set (shared blocks first, then private).
	Keywords []string
	Priority int
	Budget   float64
	// Watcher marks tenants that attach an SSE watcher to their jobs.
	Watcher bool
}

// Workload is a fully materialised profile: the tenant roster plus the
// tweet stream and golden pool the in-process server serves them from.
type Workload struct {
	Profile Profile
	Tenants []Tenant
	// SharedBlocks is the per-tenant count of shared blocks the overlap
	// rounded to.
	SharedBlocks int
	// Stream is the synthetic tweet stream; every tenant's keyword
	// filter matches exactly QuestionsPerTenant of its tweets.
	Stream []textgen.Tweet
	// Golden is the ground-truth pool for accuracy sampling.
	Golden []textgen.Tweet
	// Start/Window bound every submitted query's time filter.
	Start  time.Time
	Window time.Duration
}

// domainVariant returns variant v's answer domain: the TSA labels, plus
// one distinct abstain label per extra variant so variants canonicalise
// to distinct answer sets (and therefore distinct scheduler groups and
// engines).
func domainVariant(v int) []string {
	out := append([]string(nil), textgen.Labels...)
	if v > 0 {
		out = append(out, fmt.Sprintf("Abstain%02d", v))
	}
	return out
}

// Movie-name shapes. All names are eight characters, so no name can be
// a substring of another (the keyword filter is substring containment)
// and none collides with the lexicon words of the tweet generator.
func sharedMovie(variant, block int) string { return fmt.Sprintf("SH%02dB%03d", variant, block) }
func privateMovie(tenant, block int) string { return fmt.Sprintf("PT%03dB%02d", tenant, block) }

// BuildWorkload materialises the profile. The result depends only on
// the (validated) profile's fields.
func BuildWorkload(p Profile) (*Workload, error) {
	p, err := p.Validate()
	if err != nil {
		return nil, err
	}
	if p.Tenants > 1000 || p.QuestionsPerTenant/BlockSize > 100 {
		return nil, fmt.Errorf("loadgen: workload namespace caps exceeded (max 1000 tenants, %d questions per tenant)", 100*BlockSize)
	}
	blocks := p.QuestionsPerTenant / BlockSize
	shared := int(math.Round(p.Overlap * float64(blocks)))
	private := blocks - shared

	w := &Workload{
		Profile:      p,
		SharedBlocks: shared,
		Start:        time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC),
		Window:       24 * time.Hour,
	}

	// Movie roster: each domain variant owns one shared-block pool every
	// one of its tenants re-asks; each tenant owns its private blocks.
	var movies []string
	for v := 0; v < p.Domains; v++ {
		for b := 0; b < shared; b++ {
			movies = append(movies, sharedMovie(v, b))
		}
	}
	for t := 0; t < p.Tenants; t++ {
		for b := 0; b < private; b++ {
			movies = append(movies, privateMovie(t, b))
		}
	}

	watchers := int(math.Round(p.WatcherFraction * float64(p.Tenants)))
	for i := 0; i < p.Tenants; i++ {
		v := i % p.Domains
		t := Tenant{
			Index:         i,
			Name:          fmt.Sprintf("t%03d", i),
			DomainVariant: v,
			Domain:        domainVariant(v),
			Budget:        p.TenantBudget,
			// Bresenham spread: watchers distributed evenly over the
			// roster instead of clustering on the first indices.
			Watcher: (i+1)*watchers/p.Tenants > i*watchers/p.Tenants,
		}
		if p.PriorityLevels > 0 {
			t.Priority = i % p.PriorityLevels
		}
		for b := 0; b < shared; b++ {
			t.Keywords = append(t.Keywords, sharedMovie(v, b))
		}
		for b := 0; b < private; b++ {
			t.Keywords = append(t.Keywords, privateMovie(i, b))
		}
		w.Tenants = append(w.Tenants, t)
	}

	stream, err := textgen.Generate(textgen.Config{
		Seed:           p.Seed + 1,
		Movies:         movies,
		TweetsPerMovie: BlockSize,
		Start:          w.Start,
		Span:           w.Window,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: generating stream: %w", err)
	}
	w.Stream = stream
	golden, err := textgen.Generate(textgen.Config{
		Seed:           p.Seed + 2,
		Movies:         []string{"CALIB000"},
		TweetsPerMovie: 32,
		Start:          w.Start,
		Span:           w.Window,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: generating golden pool: %w", err)
	}
	w.Golden = golden
	return w, nil
}

// JobName is the tenant's job name in the given round.
func (w *Workload) JobName(t Tenant, round int) string {
	if round == 0 {
		return t.Name
	}
	return fmt.Sprintf("%s-r%d", t.Name, round)
}

// Submission builds the tenant's round-r job submission. Rounds beyond
// the first re-ask the identical question set under a fresh name, so
// they exercise the verified-answer cache.
func (w *Workload) Submission(t Tenant, round int) api.JobSubmission {
	return api.JobSubmission{
		Name:             w.JobName(t, round),
		Kind:             "tsa",
		Keywords:         append([]string(nil), t.Keywords...),
		RequiredAccuracy: w.Profile.RequiredAccuracy,
		Domain:           append([]string(nil), t.Domain...),
		Start:            w.Start.Format(time.RFC3339),
		Window:           w.Window.String(),
		Priority:         t.Priority,
		Budget:           t.Budget,
		Aggregator:       w.Profile.Aggregator,
	}
}

// StreamSubmission builds the tenant's standing-query submission. Each
// tenant streams its own synthetic movie, so no two streams' items
// coalesce; the per-tenant source seed keeps every stream's arrival
// process independent yet reproducible.
func (w *Workload) StreamSubmission(t Tenant) api.StreamSubmission {
	p := w.Profile
	return api.StreamSubmission{
		Name:             t.Name,
		Keywords:         []string{fmt.Sprintf("SM%03dMOV", t.Index)},
		RequiredAccuracy: p.RequiredAccuracy,
		Domain:           append([]string(nil), t.Domain...),
		Start:            w.Start.Format(time.RFC3339),
		Window:           p.StreamWindow.String(),
		WindowCapacity:   p.StreamCapacity,
		Items:            p.StreamItems,
		Rate:             p.StreamRate,
		SourceSeed:       p.Seed + 100 + uint64(t.Index),
		Priority:         t.Priority,
		Budget:           t.Budget,
		Aggregator:       p.Aggregator,
	}
}

// EnumSubmission builds the tenant's enumeration submission. Each
// tenant enumerates its own hidden set (named after a tenant-unique
// keyword), so no two jobs' items collide; the per-tenant source seed
// keeps every simulated crowd independent yet reproducible.
func (w *Workload) EnumSubmission(t Tenant) api.JobSubmission {
	p := w.Profile
	return api.JobSubmission{
		Name:     t.Name,
		Kind:     api.KindEnumeration,
		Keywords: []string{fmt.Sprintf("EN%03dSET", t.Index)},
		Priority: t.Priority,
		Budget:   t.Budget,
		Enum: &api.EnumSpec{
			ItemValue:  p.EnumItemValue,
			Universe:   p.EnumUniverse,
			SourceSeed: p.Seed + 200 + uint64(t.Index),
		},
	}
}

// TotalJobs is the number of jobs the workload submits across rounds.
func (w *Workload) TotalJobs() int { return w.Profile.Tenants * w.Profile.Rounds }
