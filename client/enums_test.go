package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"cdas/api"
)

func enumSubmission(name string) api.JobSubmission {
	return api.JobSubmission{
		Name:     name,
		Kind:     api.KindEnumeration,
		Keywords: []string{"seabird species"},
		Budget:   10,
		Enum:     &api.EnumSpec{ItemValue: 0.05, Universe: 20, SourceSeed: 3},
	}
}

// publishEnumBatch pushes a fabricated batch completion through the
// server's enumeration sink, exactly as the enum runner would.
func (b *testBackend) publishEnumBatch(name string, batch int, done bool) {
	items := []api.EnumItem{
		{Key: "k0", Text: "gull", Count: 3 * (batch + 1), Batch: 0},
		{Key: "k1", Text: "tern", Count: batch + 1, Batch: 0},
	}
	st := api.EnumStatus{
		Name:          name,
		Keywords:      []string{"seabird species"},
		State:         api.JobRunning,
		Batches:       batch + 1,
		Contributions: int64(8 * (batch + 1)),
		Distinct:      len(items),
		Spent:         0.04 * float64(batch+1),
		Progress:      float64(batch+1) / 3,
		Done:          done,
		Items:         items,
	}
	var bt *api.EnumBatch
	if !done {
		bt = &api.EnumBatch{
			Batch:         batch,
			Contributions: 8,
			NewItems:      items[:1],
			ExpectedNew:   1.5,
			Cost:          0.04,
		}
	} else {
		st.Stopped = api.StopMarginalValue
	}
	b.srv.PublishEnumBatch(st, bt)
}

func TestClientEnumerationLifecycle(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, enumSubmission("e1"))
	if err != nil {
		t.Fatalf("SubmitJob(enumeration): %v", err)
	}
	if st.Name != "e1" || st.Kind != string(api.KindEnumeration) {
		t.Errorf("submitted enumeration = %+v", st)
	}

	// The kind filter routes the job to its family, both ways.
	page, err := c.ListJobs(ctx, ListJobsOptions{Kind: api.KindEnumeration})
	if err != nil || len(page.Jobs) != 1 || page.Jobs[0].Name != "e1" {
		t.Errorf("ListJobs(kind=enumeration) = %+v, %v", page, err)
	}
	if page, err = c.ListJobs(ctx, ListJobsOptions{Kind: api.KindBatch}); err != nil || len(page.Jobs) != 0 {
		t.Errorf("ListJobs(kind=batch) = %+v, %v, want empty", page, err)
	}

	b.publishEnumBatch("e1", 0, false)
	est, err := c.Enumeration(ctx, "e1")
	if err != nil || est.Name != "e1" || est.Distinct != 2 {
		t.Errorf("Enumeration = %+v, %v", est, err)
	}
	list, err := c.ListEnumerations(ctx, ListJobsOptions{})
	if err != nil || len(list.Enumerations) != 1 || list.Enumerations[0].Name != "e1" {
		t.Errorf("ListEnumerations = %+v, %v", list, err)
	}

	var apiErr *api.Error
	if _, err := c.Enumeration(ctx, "ghost"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("Enumeration(ghost) err = %v, want api 404", err)
	}

	// A watcher sees batch completions and stops at done.
	events, err := c.WatchEnumeration(ctx, "e1")
	if err != nil {
		t.Fatalf("WatchEnumeration: %v", err)
	}
	b.publishEnumBatch("e1", 1, false)
	b.publishEnumBatch("e1", 2, true)
	var kinds []string
	var last EnumWatchEvent
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
	sawBatch := false
	for _, k := range kinds {
		sawBatch = sawBatch || k == api.EventBatch
	}
	if !sawBatch {
		t.Errorf("watch kinds = %v, want at least one batch event", kinds)
	}
	if last.Event.State.Batches != 3 || !last.Event.State.Done || last.Event.State.Stopped != api.StopMarginalValue {
		t.Errorf("terminal event state = %+v", last.Event.State)
	}

	// Resuming past the terminal revision still replays done.
	events, err = c.WatchEnumeration(ctx, "e1", WatchOptions{LastEventID: last.ID})
	if err != nil {
		t.Fatalf("WatchEnumeration resume: %v", err)
	}
	var resumed []EnumWatchEvent
	for ev := range events {
		if ev.Err != nil {
			t.Fatalf("resume watch error: %v", ev.Err)
		}
		resumed = append(resumed, ev)
	}
	if len(resumed) != 1 || resumed[0].Type != api.EventDone {
		t.Errorf("resumed deliveries = %+v, want one done replay", resumed)
	}
}

func TestClientEnumerationsPaginate(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()
	names := []string{"ea", "eb", "ec"}
	for _, n := range names {
		if _, err := c.SubmitJob(ctx, enumSubmission(n)); err != nil {
			t.Fatalf("SubmitJob(%s): %v", n, err)
		}
		b.publishEnumBatch(n, 0, false)
	}
	// Page size 1 forces the iterator through three fetches.
	var got []string
	for st, err := range c.Enumerations(ctx, ListJobsOptions{Limit: 1}) {
		if err != nil {
			t.Fatalf("Enumerations iterator: %v", err)
		}
		got = append(got, st.Name)
	}
	if len(got) != len(names) {
		t.Fatalf("iterated %v, want %v", got, names)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Errorf("iterated %v, want %v", got, names)
			break
		}
	}
}

func TestEnumPathEscaping(t *testing.T) {
	if got := enumPath("a b/c"); got != "/v1/enumerations/a%20b%2Fc" {
		t.Errorf("enumPath = %q", got)
	}
}
