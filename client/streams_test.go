package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"cdas/api"
)

func streamSubmission(name string) api.StreamSubmission {
	return api.StreamSubmission{
		Name:             name,
		Keywords:         []string{"Thor"},
		RequiredAccuracy: 0.85,
		Domain:           []string{"positive", "neutral", "negative"},
		Start:            "2011-10-01T00:00:00Z",
		Window:           "1m",
		Items:            24,
		Rate:             1,
		SourceSeed:       5,
	}
}

// publishWindow pushes a fabricated window close through the server's
// standing-query sink, exactly as the standing runner would.
func (b *testBackend) publishWindow(name string, window int, done bool) {
	st := api.StreamStatus{
		Name:          name,
		Keywords:      []string{"Thor"},
		Domain:        []string{"positive", "neutral", "negative"},
		State:         api.JobRunning,
		WindowsClosed: window + 1,
		Seen:          int64(10 * (window + 1)),
		Matched:       int64(10 * (window + 1)),
		Spent:         0.5 * float64(window+1),
		Progress:      float64(window+1) / 3,
		Done:          done,
	}
	var win *api.StreamWindow
	if !done {
		win = &api.StreamWindow{
			Window:      window,
			Items:       10,
			Answered:    10,
			BatchSize:   5,
			Percentages: map[string]float64{"positive": 1},
			Cost:        0.5,
		}
	}
	b.srv.PublishStreamWindow(st, win)
}

func TestClientStreamLifecycle(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()

	st, err := c.SubmitStream(ctx, streamSubmission("s1"))
	if err != nil {
		t.Fatalf("SubmitStream: %v", err)
	}
	if st.Name != "s1" || st.Done {
		t.Errorf("submitted stream = %+v", st)
	}

	if st, err = c.Stream(ctx, "s1"); err != nil || st.Name != "s1" {
		t.Errorf("Stream = %+v, %v", st, err)
	}
	streams, err := c.ListStreams(ctx)
	if err != nil || len(streams) != 1 || streams[0].Name != "s1" {
		t.Errorf("ListStreams = %+v, %v", streams, err)
	}

	// Unknown streams surface the structured 404.
	var apiErr *api.Error
	if _, err := c.Stream(ctx, "ghost"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("Stream(ghost) err = %v, want api 404", err)
	}

	// A watcher sees published windows and stops at done.
	events, err := c.WatchStream(ctx, "s1")
	if err != nil {
		t.Fatalf("WatchStream: %v", err)
	}
	b.publishWindow("s1", 0, false)
	b.publishWindow("s1", 1, false)
	b.publishWindow("s1", 2, true)
	var kinds []string
	var last StreamEvent
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				goto drained
			}
			if ev.Err != nil {
				t.Fatalf("watch error: %v", ev.Err)
			}
			kinds = append(kinds, ev.Type)
			last = ev
		case <-deadline:
			t.Fatal("watch never finished")
		}
	}
drained:
	if len(kinds) == 0 || kinds[len(kinds)-1] != api.EventDone {
		t.Fatalf("watch kinds = %v, want trailing done", kinds)
	}
	sawWindow := false
	for _, k := range kinds {
		sawWindow = sawWindow || k == api.EventWindow
	}
	if !sawWindow {
		t.Errorf("watch kinds = %v, want at least one window event", kinds)
	}
	if last.Event.State.WindowsClosed != 3 || !last.Event.State.Done {
		t.Errorf("terminal event state = %+v", last.Event.State)
	}

	// Resuming past the terminal revision still yields the done replay
	// (terminal states always replay so a watcher can't hang).
	events, err = c.WatchStream(ctx, "s1", WatchOptions{LastEventID: last.ID})
	if err != nil {
		t.Fatalf("WatchStream resume: %v", err)
	}
	var resumed []StreamEvent
	for ev := range events {
		if ev.Err != nil {
			t.Fatalf("resume watch error: %v", ev.Err)
		}
		resumed = append(resumed, ev)
	}
	if len(resumed) != 1 || resumed[0].Type != api.EventDone {
		t.Errorf("resumed deliveries = %+v, want one done replay", resumed)
	}

	// Cancelling a second stream returns its record.
	if _, err := c.SubmitStream(ctx, streamSubmission("s2")); err != nil {
		t.Fatal(err)
	}
	st, err = c.CancelStream(ctx, "s2")
	if err != nil {
		t.Fatalf("CancelStream: %v", err)
	}
	if st.State != api.JobCancelled && st.State != api.JobRunning && st.State != api.JobPending {
		t.Errorf("cancelled stream state = %q", st.State)
	}
	if _, err := c.CancelStream(ctx, "ghost"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("CancelStream(ghost) err = %v, want api 404", err)
	}
}

func TestWatchStreamCancel(t *testing.T) {
	b, c := newTestBackend(t)
	if _, err := c.SubmitStream(context.Background(), streamSubmission("s1")); err != nil {
		t.Fatal(err)
	}
	b.publishWindow("s1", 0, false)
	ctx, cancel := context.WithCancel(context.Background())
	events, err := c.WatchStream(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	// Consume the replay, then cancel: the channel must close without a
	// trailing error delivery.
	<-events
	cancel()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Err != nil {
				t.Fatalf("cancelled watch delivered error: %v", ev.Err)
			}
		case <-deadline:
			t.Fatal("channel never closed after cancel")
		}
	}
}

func TestStreamPathEscaping(t *testing.T) {
	if got := streamPath("a b/c"); got != "/v1/streams/a%20b%2Fc" {
		t.Errorf("streamPath = %q", got)
	}
}
