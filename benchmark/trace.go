package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanID identifies a span within one run; 0 means "no span".
type spanID int32

// span is one timed call across a layer seam. Times are offsets from the
// tracer's epoch. Spans of one job share Job; Parent names the span that
// caused this one.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// jobRec carries a job's open span ids between the seams that cannot
// pass a context to each other (HTTP client → handler → controller →
// runner run on different goroutines with fixed signatures).
type jobRec struct {
	root, client, handler, runner atomic.Int32
	ack                           atomic.Int64 // submit acknowledged, ns since epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: the stack is then wired without any wrapper, so the
// end-to-end numbers carry no tracing cost at all.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	jobs  sync.Map // job name → *jobRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) rec(job string) *jobRec {
	if r, ok := t.jobs.Load(job); ok {
		return r.(*jobRec)
	}
	r, _ := t.jobs.LoadOrStore(job, &jobRec{})
	return r.(*jobRec)
}

// begin opens a span; the caller must end it.
func (t *tracer) begin(name, job string, parent spanID) spanID {
	return t.beginAt(name, job, parent, time.Now())
}

func (t *tracer) end(id spanID) { t.endAt(id, time.Now()) }

// beginAt and endAt open and close a span at times the caller observed
// (an open-loop job's span starts when it was due, not when it was sent).
func (t *tracer) beginAt(name, job string, parent spanID, at time.Time) spanID {
	return t.add(span{Parent: parent, Name: name, Job: job, Start: at.Sub(t.epoch)})
}

func (t *tracer) add(s span) spanID {
	t.mu.Lock()
	s.ID = spanID(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) endAt(id spanID, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = at.Sub(t.epoch)
	t.mu.Unlock()
}

// reset drops everything recorded so far: the set-up's spans are not the
// timed phase's.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.jobs.Range(func(k, _ any) bool { t.jobs.Delete(k); return true })
}

// record stores a span whose interval the caller measured itself.
func (t *tracer) record(name, job string, parent spanID, start, end time.Time) spanID {
	return t.add(span{Parent: parent, Name: name, Job: job, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// snapshot returns the finished spans (open ones are dropped: a span
// still open when the run ends measured nothing).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span id to its duration minus the part of its
// interval covered by its children (overlapping children are merged, and
// a child is clipped to its parent).
func selfTimes(spans []span) map[spanID]time.Duration {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// byName groups span durations (ms) by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// writeSpans writes one JSON object per line, in start order.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing span file: %w", err)
	}
	return path, f.Close()
}

// tally is a seam too hot for a span per call (one crowd assignment, one
// status poll): a count and its busy time.
type tally struct {
	n    atomic.Int64
	busy atomic.Int64 // ns
}

func (c *tally) add(d time.Duration) {
	c.n.Add(1)
	c.busy.Add(int64(d))
}
