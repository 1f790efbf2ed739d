package httpapi

import (
	"bufio"
	"encoding/json"
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

// sseEvent is one parsed frame of a test client's stream.
type sseEvent struct {
	id    int64
	kind  string
	state QueryState
}

// readSSE parses frames off an open event stream until the stream ends
// or maxEvents arrive (0 = until EOF).
func readSSE(t *testing.T, body *bufio.Scanner, maxEvents int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var ev sseEvent
	haveData := false
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if haveData {
				events = append(events, ev)
				if ev.kind == api.EventDone || (maxEvents > 0 && len(events) == maxEvents) {
					return events
				}
			}
			ev, haveData = sseEvent{}, false
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad event id line %q: %v", line, err)
			}
			ev.id = id
		case strings.HasPrefix(line, "event: "):
			ev.kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &ev.state); err != nil {
				t.Fatalf("bad event data %q: %v", line, err)
			}
			haveData = true
		}
	}
	return events
}

func openStream(t *testing.T, client *http.Client, url string, lastEventID int64) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return resp, sc
}

// TestSSEStreamsLiveQuery publishes query revisions right after an SSE
// client connects: the client must receive the replay of the state it
// subscribed at, every intermediate revision with increasing ids, and
// the terminal done event.
func TestSSEStreamsLiveQuery(t *testing.T) {
	server := NewServer()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	domain := []string{"pos", "neu", "neg"}
	server.Update(QueryState{Name: "panda", Domain: domain})
	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/panda/events", -1)
	defer resp.Body.Close()
	const revisions = 3
	for i := 1; i <= revisions; i++ {
		server.Update(QueryState{Name: "panda", Domain: domain, Items: i * 8, Progress: float64(i) / (revisions + 1)})
	}
	server.Update(QueryState{Name: "panda", Domain: domain, Items: 32, Progress: 1, Done: true})

	events := readSSE(t, sc, 0)
	if len(events) != revisions+2 {
		t.Fatalf("received %d events, want %d (replay, %d revisions, done): %+v", len(events), revisions+2, revisions, events)
	}
	for i, ev := range events {
		if ev.id != int64(i+1) {
			t.Errorf("event %d id = %d, want %d", i, ev.id, i+1)
		}
		if i > 0 && ev.state.Progress < events[i-1].state.Progress {
			t.Errorf("progress regressed: %v after %v", ev.state.Progress, events[i-1].state.Progress)
		}
		wantKind := api.EventState
		if i == len(events)-1 {
			wantKind = api.EventDone
		}
		if ev.kind != wantKind {
			t.Errorf("event %d kind = %q, want %q", i, ev.kind, wantKind)
		}
	}
	if events[0].state.Items != 0 {
		t.Errorf("first event not the replay of the state at subscription: %+v", events[0])
	}
	if final := events[len(events)-1].state; !final.Done || final.Progress != 1 || final.Items != 32 {
		t.Errorf("terminal state = %+v", final)
	}

	// The handler tears down after done; no subscriber may linger.
	waitNoSubscribers(t, server, "panda")
}

// TestSSELastEventIDSuppressesReplay: a client presenting the current
// revision as Last-Event-ID receives nothing until the next Update.
func TestSSELastEventIDSuppressesReplay(t *testing.T) {
	server := NewServer()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	server.Update(QueryState{Name: "q", Domain: []string{"a", "b"}, Progress: 0.25})
	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/q/events", 1)
	defer resp.Body.Close()

	got := make(chan []sseEvent, 1)
	go func() { got <- readSSE(t, sc, 1) }()
	select {
	case evs := <-got:
		t.Fatalf("replay arrived despite Last-Event-ID: %+v", evs)
	case <-time.After(50 * time.Millisecond):
	}
	server.Update(QueryState{Name: "q", Domain: []string{"a", "b"}, Progress: 0.5})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].id != 2 || evs[0].state.Progress != 0.5 {
			t.Errorf("post-update event = %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update never reached the suppressed-replay client")
	}
}

// TestSSEUnknownQuery404s: neither a published query nor a job — the
// stream request gets the structured envelope.
func TestSSEUnknownQuery404s(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/queries/ghost/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var envelope api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error == nil || envelope.Error.Code != api.CodeNotFound {
		t.Errorf("envelope = %+v", envelope.Error)
	}
}

// TestSSEDisconnectReleasesSubscriber: closing the client connection
// mid-stream tears the subscription down — the goroutine-leak guard.
func TestSSEDisconnectReleasesSubscriber(t *testing.T) {
	server := NewServer()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	server.Update(QueryState{Name: "q", Domain: []string{"a", "b"}})
	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/q/events", -1)
	if evs := readSSE(t, sc, 1); len(evs) != 1 {
		t.Fatalf("replay events = %d, want 1", len(evs))
	}
	if n := subscriberCount(server, "q"); n != 1 {
		t.Fatalf("subscriberCount = %d, want 1", n)
	}
	resp.Body.Close() // client walks away mid-stream
	waitNoSubscribers(t, server, "q")
}

// subscriberCount reports how many SSE clients follow name's query —
// the goroutine-leak probe.
func subscriberCount(server *Server, name string) int {
	server.mu.RLock()
	defer server.mu.RUnlock()
	return len(server.queries[name].subs)
}

func waitNoSubscribers(t *testing.T, server *Server, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if subscriberCount(server, name) == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%d subscribers still registered for %q after disconnect", subscriberCount(server, name), name)
}

// TestSSESubscriberChurnRace hammers subscriber add/drop while Update
// runs concurrently — the -race guard for the fan-out path.
func TestSSESubscriberChurnRace(t *testing.T) {
	server := NewServer()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	server.Update(QueryState{Name: "q", Domain: []string{"a", "b"}})
	stop := make(chan struct{})
	var updaters sync.WaitGroup
	for u := 0; u < 4; u++ {
		updaters.Add(1)
		go func() {
			defer updaters.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					server.Update(QueryState{Name: "q", Domain: []string{"a", "b"}, Items: i})
				}
			}
		}()
	}
	var clients sync.WaitGroup
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 5; i++ {
				resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/q/events", -1)
				readSSE(t, sc, 3)
				resp.Body.Close()
			}
		}()
	}
	clients.Wait()
	close(stop)
	updaters.Wait()
	waitNoSubscribers(t, server, "q")
}

// TestSubscriberPushDropsOldest: a full subscriber buffer sheds its
// oldest pending revision, never blocking the publisher.
func TestSubscriberPushDropsOldest(t *testing.T) {
	sub := &subscriber{ch: make(chan feedEvent, 4)}
	for i := 1; i <= 10; i++ {
		sub.push(feedEvent{rev: int64(i)})
	}
	var got []int64
	for len(sub.ch) > 0 {
		got = append(got, (<-sub.ch).rev)
	}
	want := []int64{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("buffered revisions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffered revisions = %v, want %v", got, want)
		}
	}
}

// TestSSEKnownJobWithoutQueryState: a submitted job whose query hasn't
// published yet is watchable — the stream waits for the first revision
// instead of 404ing a race.
func TestSSEKnownJobWithoutQueryState(t *testing.T) {
	server := NewServer()
	server.SetJobs(&goldenController{statuses: goldenStatuses()})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// "strapped" is a known job with no published query state.
	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/strapped/events", -1)
	defer resp.Body.Close()
	got := make(chan []sseEvent, 1)
	go func() { got <- readSSE(t, sc, 1) }()
	server.Update(QueryState{Name: "strapped", Domain: []string{"a", "b"}, Progress: 0.1})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].state.Progress != 0.1 {
			t.Errorf("first published event = %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher of a pre-publication job never got the first revision")
	}
}

// TestSSESyntheticDoneForDeadJob: a job that fails before publishing
// any query state must still terminate its watchers — the handler
// synthesizes a done event from the lifecycle record instead of
// hanging the stream forever.
func TestSSESyntheticDoneForDeadJob(t *testing.T) {
	server := NewServer()
	server.SetJobs(&goldenController{statuses: []jobs.Status{{
		Job:   jobs.Job{Name: "doomed", Kind: jobs.KindTSA},
		State: jobs.StateFailed,
		Error: "run: no tweets matched",
	}}})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/doomed/events", -1)
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, sc, 0) }()
	select {
	case events := <-done:
		if len(events) != 1 {
			t.Fatalf("events = %+v, want exactly the synthetic done", events)
		}
		ev := events[0]
		if ev.kind != api.EventDone || !ev.state.Done || ev.state.Error != "run: no tweets matched" {
			t.Errorf("synthetic event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher of a dead job hung instead of receiving a synthetic done")
	}
	waitNoSubscribers(t, server, "doomed")
}

// TestSSESyntheticDonePreservesPartialState: when the terminal event is
// synthesized for a dead job, any partial results the run published
// stay visible — only Done and the job error are stamped on.
func TestSSESyntheticDonePreservesPartialState(t *testing.T) {
	server := NewServer()
	server.SetJobs(&goldenController{statuses: []jobs.Status{{
		Job:   jobs.Job{Name: "partial", Kind: jobs.KindTSA},
		State: jobs.StateCancelled,
		Error: "cancelled mid-run",
	}}})
	server.Update(QueryState{
		Name: "partial", Domain: []string{"a", "b"},
		Percentages: map[string]float64{"a": 0.6, "b": 0.4},
		Items:       30, Progress: 0.5,
	})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Last-Event-ID equals the current revision, so the non-done replay
	// is suppressed and only the synthetic terminal event arrives.
	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/partial/events", 1)
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, sc, 0) }()
	select {
	case events := <-done:
		if len(events) != 1 {
			t.Fatalf("events = %+v, want exactly the synthetic done", events)
		}
		st := events[0].state
		if !st.Done || st.Error != "cancelled mid-run" {
			t.Errorf("terminal flags = %+v", st)
		}
		if st.Items != 30 || st.Progress != 0.5 || st.Percentages["a"] != 0.6 {
			t.Errorf("partial results wiped by synthesis: %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("synthetic done never arrived")
	}
}

// TestSSEDoneReplayOnResume: resuming a watch on an already-done query
// with Last-Event-ID at the final revision re-sends the done event and
// closes, instead of hanging a job-less query forever.
func TestSSEDoneReplayOnResume(t *testing.T) {
	server := NewServer() // no job controller: a query published directly
	server.Update(QueryState{Name: "finished", Domain: []string{"a", "b"}, Progress: 1, Done: true})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	resp, sc := openStream(t, ts.Client(), ts.URL+"/v1/queries/finished/events", 1)
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, sc, 0) }()
	select {
	case events := <-done:
		if len(events) != 1 || events[0].kind != api.EventDone || !events[0].state.Done {
			t.Errorf("resume replay = %+v, want the done event again", events)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resumed watch of a done query hung")
	}
}
