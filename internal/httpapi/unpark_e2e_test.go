package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdas/internal/jobs"
)

// TestUnparkOverHTTP drives the budget-parking loop end to end through
// the API: a submitted job parks when its runner reports budget
// exhaustion, GET shows the parked state, POST /v1/jobs/{name}:unpark
// resumes it, and it completes.
func TestUnparkOverHTTP(t *testing.T) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var overBudget atomic.Bool
	overBudget.Store(true)
	disp, err := jobs.NewDispatcher(svc, func(ctx context.Context, job jobs.Job, report func(float64, float64)) error {
		if overBudget.Load() {
			return fmt.Errorf("%w: estimate over cap", jobs.ErrParked)
		}
		report(1, 0.5)
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	defer disp.Stop()
	api := NewServer()
	api.SetJobs(disp)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	body := `{"name":"strapped","keywords":["thor"],"required_accuracy":0.9,` +
		`"domain":["Positive","Neutral","Negative"],"window":"24h","budget":0.0001,"priority":1}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	state := func() jobs.State {
		st, _ := svc.Status("strapped")
		return st.State
	}
	waitState := func(want jobs.State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if state() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for state %s (at %s)", want, state())
	}
	waitState(jobs.StateParked)

	// Unparking while still over budget just parks it again — never a
	// failure, never a burned attempt.
	unpark := func() int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/strapped:unpark", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := unpark(); code != http.StatusOK {
		t.Fatalf("unpark: status %d", code)
	}
	waitState(jobs.StateParked)
	st, _ := svc.Status("strapped")
	if st.Attempts != 0 {
		t.Errorf("park cycles burned %d attempts", st.Attempts)
	}

	// With budget available the unparked job runs to completion.
	overBudget.Store(false)
	if code := unpark(); code != http.StatusOK {
		t.Fatalf("second unpark: status %d", code)
	}
	waitState(jobs.StateDone)

	// Unparking a done job is a conflict; unknown jobs are 404.
	if code := unpark(); code != http.StatusConflict {
		t.Errorf("unpark(done): status %d, want 409", code)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/ghost:unpark", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unpark(unknown): status %d, want 404", resp.StatusCode)
	}
}
