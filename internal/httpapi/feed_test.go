package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
)

// flushHookWriter records an SSE response. Its first Flush, the one
// right after WriteHeader and before the replay, runs onFirstFlush, so a
// test can land publishes between the subscription and the replay.
type flushHookWriter struct {
	header       http.Header
	body         bytes.Buffer
	flushed      bool
	onFirstFlush func()
}

func (w *flushHookWriter) Header() http.Header         { return w.header }
func (w *flushHookWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *flushHookWriter) WriteHeader(int)             {}

func (w *flushHookWriter) Flush() {
	if !w.flushed {
		w.flushed = true
		w.onFirstFlush()
	}
}

// wireEvent is one frame as a client sees it: the id, the event type
// and the state the payload carries (the whole payload for a query,
// its "state" member for a stream or an enumeration).
type wireEvent struct {
	id    int64
	kind  string
	state string
}

func parseWire(t *testing.T, body string, whole bool) []wireEvent {
	t.Helper()
	var out []wireEvent
	for _, frame := range strings.Split(body, "\n\n") {
		if frame == "" {
			continue
		}
		var ev wireEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseInt(line[4:], 10, 64)
				if err != nil {
					t.Fatalf("bad id line %q", line)
				}
				ev.id = id
			case strings.HasPrefix(line, "event: "):
				ev.kind = line[7:]
			case strings.HasPrefix(line, "data: "):
				ev.state = line[6:]
				if !whole {
					var wrapped struct{ State json.RawMessage }
					if err := json.Unmarshal([]byte(ev.state), &wrapped); err != nil {
						t.Fatalf("bad data line %q: %v", line, err)
					}
					ev.state = string(wrapped.State)
				}
			}
		}
		out = append(out, ev)
	}
	return out
}

// feedCase is one SSE kind as the property test drives it: its events
// path and a publisher of the seq-th state, which returns the state the
// feed now holds as JSON.
type feedCase struct {
	kind    string
	path    string
	whole   bool
	publish func(s *Server, rng *rand.Rand, seq int, done bool) string
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func feedCases() []feedCase {
	var lastWindow *api.StreamWindow
	var lastBatch *api.EnumBatch
	return []feedCase{
		{kind: "query", path: "/v1/queries/fq/events", whole: true,
			publish: func(s *Server, _ *rand.Rand, seq int, done bool) string {
				st := QueryState{Name: "fq", Domain: []string{"a", "b"}, Items: seq, Done: done}
				s.Update(st)
				return mustJSON(st)
			}},
		{kind: "stream", path: "/v1/streams/fs/events",
			publish: func(s *Server, rng *rand.Rand, seq int, done bool) string {
				st := api.StreamStatus{Name: "fs", State: api.JobRunning, WindowsClosed: seq, Done: done}
				var win *api.StreamWindow
				if rng.Intn(3) > 0 {
					win = &api.StreamWindow{Window: seq, Items: seq}
					lastWindow = win
				}
				s.PublishStreamWindow(st, win)
				st.LastWindow = lastWindow
				return mustJSON(st)
			}},
		{kind: "enumeration", path: "/v1/enumerations/fe/events",
			publish: func(s *Server, rng *rand.Rand, seq int, done bool) string {
				st := api.EnumStatus{Name: "fe", State: api.JobRunning, Batches: seq, Done: done}
				var batch *api.EnumBatch
				if rng.Intn(3) > 0 {
					batch = &api.EnumBatch{Batch: seq, Contributions: seq}
					lastBatch = batch
				}
				s.PublishEnumBatch(st, batch)
				st.LastBatch = lastBatch
				return mustJSON(st)
			}},
	}
}

// TestFeedDeliveryOrder drives seeded random interleavings of
// subscribe, publish and done on the query, stream and enumeration
// feeds — including publishes that land between a subscription's
// WriteHeader and its replay — and checks what every subscriber
// receives: ids strictly increase, the last event is done, and its
// state is the last one published. The dead trials watch a job that
// reached a terminal state without publishing done, with and without
// earlier publishes and Last-Event-ID: the synthetic done must still
// carry an id above every id the watcher holds.
func TestFeedDeliveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 120; trial++ {
		c := feedCases()[trial%3]
		t.Run(fmt.Sprintf("%s/%d", c.kind, trial), func(t *testing.T) {
			runFeedTrial(t, rng, c)
		})
	}
	for kind := range feedCases() {
		for _, published := range []int{0, 2} {
			for lastID := -1; lastID <= published; lastID++ {
				name := fmt.Sprintf("dead/%s/published%d/last-event-id%d", feedCases()[kind].kind, published, lastID)
				if lastID < 0 {
					name = fmt.Sprintf("dead/%s/published%d/no-last-event-id", feedCases()[kind].kind, published)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel() // each waits out the handler's dead-job ticker
					runDeadFeedTrial(t, feedCases()[kind], published, lastID)
				})
			}
		}
	}
}

// runDeadFeedTrial publishes published non-terminal states for a job
// that is already failed, then watches it, sending Last-Event-ID when
// lastID is not negative. The watcher holds lastID (0 without the
// header), so every id it receives must be above that and above the
// one before, and the stream must end in done.
func runDeadFeedTrial(t *testing.T, c feedCase, published, lastID int) {
	s := NewServer()
	var statuses []jobs.Status
	for name, kind := range map[string]jobs.Kind{"fq": jobs.KindTSA, "fs": jobs.KindContinuous, "fe": jobs.KindEnumeration} {
		statuses = append(statuses, jobs.Status{Job: jobs.Job{Name: name, Kind: kind}, State: jobs.StateFailed, Error: "dead"})
	}
	s.SetJobs(&goldenController{statuses: statuses})
	rng := rand.New(rand.NewSource(int64(published)))
	for seq := 1; seq <= published; seq++ {
		c.publish(s, rng, seq, false)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, c.path, nil).WithContext(ctx)
	if lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	}
	w := &flushHookWriter{header: make(http.Header), onFirstFlush: func() {}}
	s.Handler().ServeHTTP(w, req)

	events := parseWire(t, w.body.String(), c.whole)
	if len(events) == 0 {
		t.Fatal("the watcher received nothing")
	}
	ids := []int64{int64(max(lastID, 0))}
	for _, ev := range events {
		ids = append(ids, ev.id)
	}
	for j := 1; j < len(ids); j++ {
		if ids[j] <= ids[j-1] {
			t.Fatalf("held id then received ids %v do not strictly increase", ids)
		}
	}
	if end := events[len(events)-1]; end.kind != api.EventDone {
		t.Fatalf("last event is %q, want done (ids %v)", end.kind, ids)
	}
}

func runFeedTrial(t *testing.T, rng *rand.Rand, c feedCase) {
	s := NewServer()
	s.SetJobs(&goldenController{statuses: []jobs.Status{
		{Job: jobs.Job{Name: "fq", Kind: jobs.KindTSA}, State: jobs.StateRunning},
		{Job: jobs.Job{Name: "fs", Kind: jobs.KindContinuous}, State: jobs.StateRunning},
		{Job: jobs.Job{Name: "fe", Kind: jobs.KindEnumeration}, State: jobs.StateRunning},
	}})
	handler := s.Handler()

	total := 1 + rng.Intn(24) // publishes, the last one done
	next, last := 1, ""
	publishNext := func() {
		last = c.publish(s, rng, next, next == total)
		next++
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		wg      sync.WaitGroup
		writers []*flushHookWriter
	)
	subscribers := 1 + rng.Intn(4)
	for next <= total || len(writers) < subscribers {
		if len(writers) == subscribers || (next <= total && rng.Intn(2) == 0) {
			publishNext()
			continue
		}
		// Subscribe, and let the first Flush publish up to three more
		// states before the handler replays.
		hooked := rng.Intn(4)
		subscribed := make(chan struct{})
		w := &flushHookWriter{header: make(http.Header), onFirstFlush: func() {
			for i := 0; i < hooked && next <= total; i++ {
				publishNext()
			}
			close(subscribed)
		}}
		writers = append(writers, w)
		req := httptest.NewRequest(http.MethodGet, c.path, nil).WithContext(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			handler.ServeHTTP(w, req)
		}()
		<-subscribed
	}
	wg.Wait()

	for i, w := range writers {
		events := parseWire(t, w.body.String(), c.whole)
		if len(events) == 0 {
			t.Fatalf("subscriber %d received nothing", i)
		}
		ids := make([]int64, len(events))
		for j, ev := range events {
			ids[j] = ev.id
		}
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] {
				t.Fatalf("subscriber %d: ids %v do not strictly increase", i, ids)
			}
		}
		end := events[len(events)-1]
		if end.kind != api.EventDone {
			t.Fatalf("subscriber %d: last event is %q, want done (ids %v)", i, end.kind, ids)
		}
		if end.state != last {
			t.Fatalf("subscriber %d: done carries\n%s\nwant the last published state\n%s", i, end.state, last)
		}
	}
}
