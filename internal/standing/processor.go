// Standing-query processor: event-time tumbling windows over an
// arrival stream, closed by a watermark, each close feeding one
// scheduler generation. Batch sizes adapt to the observed arrival
// rate; saturation degrades service in accounted steps (smaller
// batches, then partial-vote verdicts, then drops) instead of
// buffering without bound.
package standing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textutil"
)

// Batcher is the scheduler surface the processor enqueues against;
// satisfied by *scheduler.Scheduler.
type Batcher interface {
	Enqueue(req scheduler.Request) (*scheduler.Ticket, error)
	SlotsPerHIT() int
}

// WindowResult is one closed window's outcome — the unit the runner
// commits durably and the API streams as an SSE event.
type WindowResult struct {
	// Window is the tumbling-window index (0 = [Start, Start+Window)).
	Window int
	// Start and End bound the window's event-time interval [Start, End).
	Start time.Time
	End   time.Time
	// Items is how many matched arrivals landed in this window
	// (answered + degraded + dropped).
	Items int
	// Answered items received full crowd verdicts.
	Answered int
	// Degraded items settled with partial-vote verdicts inferred from
	// the window's answered majority (the saturation ladder's second
	// step).
	Degraded int
	// Dropped items got no verdict: backlog overflow, or capacity
	// leftovers in a window with no answered majority to degrade from.
	Dropped int
	// BatchSize is the adaptive batch size the window ran with.
	BatchSize int
	// Shed marks a window opened under saturation (halved batch and
	// capacity).
	Shed bool
	// Summary is the window's fold (percentages, confidence, reasons)
	// over answered plus degraded items.
	Summary exec.Summary
	// Cost is the window's attributed crowd spend; CacheHits counts
	// questions answered from the scheduler's cache.
	Cost      float64
	CacheHits int
}

// Config assembles a Processor.
type Config struct {
	// Job is the continuous job (KindContinuous with a StreamSpec).
	Job jobs.Job
	// Sched batches the window's questions. Required.
	Sched Batcher
	// Tick joins the window-close barrier after the window's requests
	// are enqueued; the coordinator's flush resolves them. Required.
	Tick func(ctx context.Context) error
	// Convert maps items to crowd questions. Required.
	Convert Convert
	// OnWindow receives each closed window in index order; an error
	// aborts the stream (the runner commits the window mark here, and
	// an uncommitted window must not be advanced past). Optional.
	OnWindow func(WindowResult) error
	// Counters receives stream metrics. Optional.
	Counters *metrics.Registry
	// Resume skips windows already committed: offers landing in
	// windows <= Resume.Window are discarded (their spend and verdicts
	// are on the books) and cumulative counters start from the mark.
	Resume jobs.StreamMark
}

// window accumulates one tumbling window's pending state.
type window struct {
	items    int // matched arrivals assigned here
	buffered []exec.Item
	texts    map[string]string
	tickets  []*scheduler.Ticket
	enqueued int
	dropped  int // backlog-overflow drops attributed here
	batch    int // adaptive batch size (set when the window opens)
	capacity int // question cap (possibly shed)
	shed     bool
	opened   bool
}

// Processor owns one standing query's window state. Not safe for
// concurrent use; the runner's goroutine owns it.
type Processor struct {
	cfg      Config
	width    time.Duration
	lateness time.Duration
	fill     time.Duration
	capacity int // per-window question cap before shedding
	backlogN int // max buffered matched items across open windows
	// keywords is the query's keyword filter, folded once instead of
	// per arriving item.
	keywords textutil.Keywords

	windows  map[int]*window
	next     int // lowest unclosed window index
	maxEvent time.Time
	backlog  int
	prevRate float64 // previous window's matched items per second

	// cumulative counters, seeded from Resume.
	seen, matched, dropped, degraded int64
	answered                         int64
	spent                            float64
	fold                             *exec.Fold
}

// NewProcessor validates the configuration and applies StreamSpec
// defaults: Lateness and TargetFill default to half the window width,
// WindowCapacity to the engine's real slots per HIT, MaxBacklog to
// four windows' capacity.
func NewProcessor(cfg Config) (*Processor, error) {
	if cfg.Sched == nil || cfg.Tick == nil || cfg.Convert == nil {
		return nil, errors.New("standing: scheduler, tick and convert are required")
	}
	if cfg.Job.Kind != jobs.KindContinuous || cfg.Job.Stream == nil {
		return nil, fmt.Errorf("standing: job %q is not a continuous job", cfg.Job.Name)
	}
	if err := cfg.Job.Stream.Validate(); err != nil {
		return nil, err
	}
	if cfg.Job.Query.Window <= 0 {
		return nil, fmt.Errorf("standing: job %q needs a positive window width", cfg.Job.Name)
	}
	spec := cfg.Job.Stream
	p := &Processor{
		cfg:      cfg,
		width:    cfg.Job.Query.Window,
		lateness: spec.Lateness,
		fill:     spec.TargetFill,
		capacity: spec.WindowCapacity,
		backlogN: spec.MaxBacklog,
		keywords: textutil.FoldKeywords(cfg.Job.Query.Keywords),
		windows:  make(map[int]*window),
		next:     cfg.Resume.Window + 1,
		prevRate: spec.Rate,
		seen:     cfg.Resume.Seen,
		matched:  cfg.Resume.Matched,
		dropped:  cfg.Resume.Dropped,
		degraded: cfg.Resume.Degraded,
		spent:    cfg.Resume.Spent,
		fold:     exec.NewFold(cfg.Job.Query.Domain, cfg.Job.Query.Keywords...),
	}
	if p.lateness == 0 {
		p.lateness = p.width / 2
	}
	if p.fill == 0 {
		p.fill = p.width / 2
	}
	if p.capacity == 0 {
		p.capacity = cfg.Sched.SlotsPerHIT()
	}
	if p.backlogN == 0 {
		p.backlogN = 4 * p.capacity
	}
	return p, nil
}

// Mark snapshots the cumulative counters as the durable stream mark
// for the last closed window.
func (p *Processor) Mark() jobs.StreamMark {
	return jobs.StreamMark{
		Window:   p.next - 1,
		Spent:    p.spent,
		Seen:     p.seen,
		Matched:  p.matched,
		Dropped:  p.dropped,
		Degraded: p.degraded,
	}
}

// Summary returns the running whole-stream fold.
func (p *Processor) Summary() exec.Summary { return p.fold.Summary() }

// Answered reports how many items have settled with full crowd
// verdicts so far.
func (p *Processor) Answered() int64 { return p.answered }

// Seen reports cumulative arrivals including the resumed mark's.
func (p *Processor) Seen() int64 { return p.seen }

// Backlog reports currently buffered matched items (a test probe for
// the bounded-buffering contract).
func (p *Processor) Backlog() int { return p.backlog }

func (p *Processor) windowIndex(at time.Time) int {
	return int(at.Sub(p.cfg.Job.Query.Start) / p.width)
}

func (p *Processor) windowStart(idx int) time.Time {
	return p.cfg.Job.Query.Start.Add(time.Duration(idx) * p.width)
}

// matches is the standing-query filter: the batch Query predicate with
// the upper time bound removed — a standing query has no end time.
func (p *Processor) matches(it exec.Item) bool {
	return !it.At.Before(p.cfg.Job.Query.Start) &&
		p.keywords.In(textutil.Fold(it.Text))
}

// openWindow fixes the window's batch size and capacity the moment it
// becomes the frontier: batch ~= previous window's arrival rate times
// the target fill, clamped to [1, capacity]; under saturation (backlog
// at half its bound or worse) both batch and capacity are halved —
// the shed step of the degrade ladder.
func (p *Processor) openWindow(idx int) *window {
	w := p.windows[idx]
	if w == nil {
		w = &window{texts: make(map[string]string)}
		p.windows[idx] = w
	}
	if w.opened {
		return w
	}
	w.opened = true
	w.capacity = p.capacity
	batch := p.capacity
	if p.prevRate > 0 && p.fill > 0 {
		batch = int(math.Ceil(p.prevRate * p.fill.Seconds()))
	}
	if 2*p.backlog >= p.backlogN {
		w.shed = true
		batch /= 2
		if half := p.capacity / 2; half < w.capacity {
			w.capacity = half
		}
	}
	if batch < 1 {
		batch = 1
	}
	if batch > w.capacity {
		batch = w.capacity
	}
	if w.capacity < 1 {
		w.capacity = 1
	}
	w.batch = batch
	return w
}

func (p *Processor) pending(idx int) *window {
	w := p.windows[idx]
	if w == nil {
		w = &window{texts: make(map[string]string)}
		p.windows[idx] = w
	}
	return w
}

func (p *Processor) count(name string, delta int64) {
	if p.cfg.Counters != nil && delta != 0 {
		p.cfg.Counters.Add(name, delta)
	}
}

// Offer feeds one arrival. Items behind the watermark (their window
// already closed) and items beyond the backlog bound are dropped and
// accounted; everything else buffers into its event-time window. An
// offer can close any number of windows — the watermark may jump past
// several, including empty ones, and each close ticks the barrier.
func (p *Processor) Offer(ctx context.Context, it exec.Item) error {
	p.seen++
	p.count(metrics.CounterStreamItemsSeen, 1)
	if !p.matches(it) {
		return nil
	}
	p.matched++
	p.count(metrics.CounterStreamItemsMatched, 1)
	idx := p.windowIndex(it.At)
	if idx < p.next {
		// Late: the item's window is closed (or resumed past).
		p.dropped++
		p.count(metrics.CounterStreamItemsDropped, 1)
	} else if p.backlog >= p.backlogN {
		// Saturated: the final rung of the degrade ladder.
		p.dropped++
		p.count(metrics.CounterStreamItemsDropped, 1)
		p.pending(idx).dropped++
		p.pending(idx).items++
	} else {
		w := p.pending(idx)
		if idx == p.next {
			w = p.openWindow(idx)
		}
		w.items++
		w.buffered = append(w.buffered, it)
		w.texts[it.ID] = it.Text
		p.backlog++
		// Mid-window batching: the frontier window ships a batch as
		// soon as one fills, up to its capacity.
		if idx == p.next && len(w.buffered) >= w.batch && w.enqueued < w.capacity {
			if err := p.enqueueUpTo(w, w.enqueued+len(w.buffered)); err != nil {
				return err
			}
		}
	}
	if it.At.After(p.maxEvent) {
		p.maxEvent = it.At
	}
	// Watermark: close every window whose end the watermark has passed.
	for !p.maxEvent.Before(p.windowStart(p.next + 1).Add(p.lateness)) {
		if err := p.closeWindow(ctx); err != nil {
			return err
		}
	}
	return nil
}

// enqueueUpTo ships buffered items to the scheduler until the window
// has enqueued limit questions (clamped to its capacity).
func (p *Processor) enqueueUpTo(w *window, limit int) error {
	if limit > w.capacity {
		limit = w.capacity
	}
	n := limit - w.enqueued
	if n <= 0 || len(w.buffered) == 0 {
		return nil
	}
	if n > len(w.buffered) {
		n = len(w.buffered)
	}
	batch := w.buffered[:n]
	w.buffered = w.buffered[n:]
	req := scheduler.Request{
		Job:        p.cfg.Job.Name,
		Priority:   p.cfg.Job.Priority,
		Budget:     p.cfg.Job.Budget,
		Aggregator: p.cfg.Job.Aggregator,
	}
	for _, it := range batch {
		req.Questions = append(req.Questions, p.cfg.Convert(it))
	}
	t, err := p.cfg.Sched.Enqueue(req)
	if err != nil {
		return fmt.Errorf("standing: enqueue window batch: %w", err)
	}
	w.tickets = append(w.tickets, t)
	w.enqueued += len(batch)
	p.backlog -= len(batch)
	return nil
}

// closeWindow settles the frontier window: enqueue the buffered
// remainder up to capacity, tick the generation barrier (the flush
// resolves every live stream's window batches together), wait the
// tickets, fold answered verdicts, settle capacity leftovers with
// degraded majority verdicts (or drops when nothing answered), emit
// the WindowResult, and advance the frontier. Empty windows still tick
// — the barrier counts window closes, not batches, so generations stay
// aligned across streams with different traffic.
func (p *Processor) closeWindow(ctx context.Context) error {
	w := p.openWindow(p.next)
	if err := p.enqueueUpTo(w, w.capacity); err != nil {
		return err
	}
	leftovers := w.buffered
	w.buffered = nil
	p.backlog -= len(leftovers)
	if err := p.cfg.Tick(ctx); err != nil {
		p.abandon(w)
		return err
	}

	res := WindowResult{
		Window:    p.next,
		Start:     p.windowStart(p.next),
		End:       p.windowStart(p.next + 1),
		Items:     w.items,
		Dropped:   w.dropped,
		BatchSize: w.batch,
		Shed:      w.shed,
	}
	wfold := exec.NewFold(p.cfg.Job.Query.Domain, p.cfg.Job.Query.Keywords...)
	votes := map[string]int{}
	for i, t := range w.tickets {
		jr, err := t.Wait(ctx)
		res.Cost += jr.Cost
		res.CacheHits += jr.CacheHits
		if err != nil {
			for _, rest := range w.tickets[i:] {
				rest.Abandon()
			}
			p.spent += res.Cost
			return err
		}
		for _, oc := range exec.OutcomesFromResults(jr.Results) {
			text := w.texts[oc.ItemID]
			wfold.Observe(oc, text)
			p.fold.Observe(oc, text)
			delete(w.texts, oc.ItemID)
			res.Answered++
			p.answered++
			if oc.Accepted != "" {
				votes[oc.Accepted]++
			}
		}
	}

	// Degraded verdicts: leftovers beyond crowd capacity take the
	// window's answered majority at its observed share — a partial-vote
	// verdict, marked and accounted, never silently full-quality.
	if len(leftovers) > 0 {
		if leader, share := majority(votes, res.Answered); leader != "" {
			for _, it := range leftovers {
				oc := exec.Outcome{ItemID: it.ID, Accepted: leader, Confidence: share, Quality: share}
				wfold.Observe(oc, w.texts[it.ID])
				p.fold.Observe(oc, w.texts[it.ID])
				res.Degraded++
			}
			p.degraded += int64(len(leftovers))
			p.count(metrics.CounterStreamDegradedVerdicts, int64(len(leftovers)))
		} else {
			res.Dropped += len(leftovers)
			p.dropped += int64(len(leftovers))
			p.count(metrics.CounterStreamItemsDropped, int64(len(leftovers)))
		}
	}
	res.Summary = wfold.Summary()
	p.spent += res.Cost
	if sec := p.width.Seconds(); sec > 0 {
		p.prevRate = float64(w.items) / sec
	}
	delete(p.windows, p.next)
	p.next++
	p.count(metrics.CounterStreamWindowsClosed, 1)
	// Open the new frontier now: its batch size locks to the closed
	// window's observed rate and its shed decision to the backlog as it
	// stands, not to whenever its first arrival happens to land.
	p.openWindow(p.next)
	if p.cfg.OnWindow != nil {
		if err := p.cfg.OnWindow(res); err != nil {
			return err
		}
	}
	return nil
}

func (p *Processor) abandon(w *window) {
	for _, t := range w.tickets {
		t.Abandon()
	}
}

// Drain closes every window still holding items after the source is
// exhausted (trailing empty windows are skipped — there is nothing to
// settle and no peer stream waiting on event time that will never
// advance).
func (p *Processor) Drain(ctx context.Context) error {
	for {
		last := -1
		for idx := range p.windows {
			if idx > last && p.windows[idx].items > 0 {
				last = idx
			}
		}
		if last < p.next {
			return nil
		}
		if err := p.closeWindow(ctx); err != nil {
			return err
		}
	}
}

// Spent reports cumulative attributed crowd cost including the resumed
// mark's.
func (p *Processor) Spent() float64 { return p.spent }

// majority picks the most-voted answer; ties break by answer string
// order so the choice is deterministic. share is the leader's fraction
// of answered items. Returns "" when nothing answered.
func majority(votes map[string]int, answered int) (leader string, share float64) {
	if answered <= 0 || len(votes) == 0 {
		return "", 0
	}
	answers := make([]string, 0, len(votes))
	for a := range votes {
		answers = append(answers, a)
	}
	sort.Strings(answers)
	for _, a := range answers {
		if votes[a] > votes[leader] {
			leader = a
		}
	}
	return leader, float64(votes[leader]) / float64(answered)
}
