package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
)

// errController fails every mutation with a fixed error and serves a
// fixed record set — the error-path probe.
type errController struct {
	statuses []jobs.Status
	err      error
}

func (c *errController) Submit(jobs.Job) (jobs.Plan, error) { return jobs.Plan{}, c.err }
func (c *errController) Cancel(string) error                { return c.err }
func (c *errController) Unpark(string) error                { return c.err }
func (c *errController) Statuses() []jobs.Status            { return c.statuses }
func (c *errController) Status(name string) (jobs.Status, bool) {
	for _, st := range c.statuses {
		if st.Job.Name == name {
			return st, true
		}
	}
	return jobs.Status{}, false
}
func (c *errController) StatusesPage(after string, limit int, state jobs.State, tenant string) ([]jobs.Status, bool) {
	return pageStatuses(c.statuses, after, limit, state, tenant)
}

// pageStatuses is the reference pager the fake controllers share: a
// brute-force walk with the same semantics the real indexes implement.
func pageStatuses(sts []jobs.Status, after string, limit int, state jobs.State, tenant string) ([]jobs.Status, bool) {
	sorted := make([]jobs.Status, len(sts))
	copy(sorted, sts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Job.Name < sorted[j].Job.Name })
	var page []jobs.Status
	for _, st := range sorted {
		if st.Job.Name <= after {
			continue
		}
		if state != "" && st.State != state {
			continue
		}
		if tenant != "" && st.Job.Tenant != tenant {
			continue
		}
		if len(page) == limit {
			return page, true
		}
		page = append(page, st)
	}
	return page, false
}

// panicController blows up on listing — the recovery-middleware probe.
type panicController struct{ *errController }

func (panicController) Statuses() []jobs.Status { panic("listing exploded") }
func (panicController) StatusesPage(string, int, jobs.State, string) ([]jobs.Status, bool) {
	panic("listing exploded")
}

func decodeEnvelope(t *testing.T, body io.Reader) *api.Error {
	t.Helper()
	var envelope api.ErrorResponse
	if err := json.NewDecoder(body).Decode(&envelope); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if envelope.Error == nil {
		t.Fatal("error response without envelope")
	}
	return envelope.Error
}

// TestPanicRecoveryEnvelope: a handler panic becomes a structured 500,
// not a severed connection.
func TestPanicRecoveryEnvelope(t *testing.T) {
	s := NewServer()
	var logged []string
	s.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	s.SetJobs(panicController{&errController{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp.Body)
	if e.Code != api.CodeInternal {
		t.Errorf("code = %q, want internal", e.Code)
	}
	found := false
	for _, line := range logged {
		if strings.Contains(line, "listing exploded") {
			found = true
		}
	}
	if !found {
		t.Errorf("panic not logged; log lines: %q", logged)
	}
}

// TestRequestID: caller-supplied IDs echo back; junk is replaced with a
// generated one.
func TestRequestID(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "trace-42" {
		t.Errorf("echoed id = %q, want trace-42", id)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", strings.Repeat("x", 200))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		t.Errorf("oversized id handled as %q", id)
	}
}

// TestV1PaginationWalk pages through a larger job set and checks the
// walk is complete, ordered and duplicate-free.
func TestV1PaginationWalk(t *testing.T) {
	var sts []jobs.Status
	for i := 0; i < 10; i++ {
		sts = append(sts, jobs.Status{
			Job:   jobs.Job{Name: fmt.Sprintf("job-%02d", i), Kind: jobs.KindTSA},
			State: jobs.StatePending,
		})
	}
	s := NewServer()
	s.SetJobs(&errController{statuses: sts})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var names []string
	token := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=3"
		if token != "" {
			url += "&page_token=" + token
		}
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var page api.JobList
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, st := range page.Jobs {
			names = append(names, st.Name)
		}
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages != 4 {
		t.Errorf("walk took %d pages, want 4 (3+3+3+1)", pages)
	}
	if len(names) != 10 {
		t.Fatalf("walk returned %d jobs, want 10: %v", len(names), names)
	}
	for i, n := range names {
		if want := fmt.Sprintf("job-%02d", i); n != want {
			t.Errorf("walk[%d] = %s, want %s", i, n, want)
		}
	}
}

// TestV1KindFilteredPaginationWalk walks GET /v1/jobs?kind=… (and the
// /v1/enumerations listing, which sieves the same way) to the end for a
// table of page sizes and kind mixes, and compares the walk with a brute
// force filter of the whole set. The kind filter has no index, so a page
// is sieved out of index chunks of the page size; the cases put the
// point where a page fills before, on and after a chunk boundary, and in
// particular inside the final chunk — where the rest of that chunk used
// to be dropped for want of a next_page_token.
func TestV1KindFilteredPaginationWalk(t *testing.T) {
	mixes := map[string]func(i int) jobs.Kind{
		"all tsa":     func(int) jobs.Kind { return jobs.KindTSA },
		"no tsa":      func(int) jobs.Kind { return jobs.KindEnumeration },
		"every other": func(i int) jobs.Kind { return []jobs.Kind{jobs.KindTSA, jobs.KindContinuous}[i%2] },
		"8 tsa : 1 : 1": func(i int) jobs.Kind {
			return []jobs.Kind{jobs.KindTSA, jobs.KindTSA, jobs.KindTSA, jobs.KindTSA, jobs.KindContinuous, jobs.KindTSA, jobs.KindTSA, jobs.KindEnumeration, jobs.KindTSA, jobs.KindTSA}[i%10]
		},
		"tsa at the end": func(i int) jobs.Kind {
			return map[bool]jobs.Kind{true: jobs.KindTSA, false: jobs.KindImageTag}[i >= 17]
		},
		"tsa at the start": func(i int) jobs.Kind {
			return map[bool]jobs.Kind{true: jobs.KindTSA, false: jobs.KindEnumeration}[i < 5]
		},
	}
	walk := func(t *testing.T, ts *httptest.Server, path string, limit int, names func(body io.Reader) ([]string, string)) []string {
		var got []string
		token := ""
		for pages := 0; ; pages++ {
			if pages > 64 {
				t.Fatal("pagination never terminated")
			}
			url := fmt.Sprintf("%s%slimit=%d", ts.URL, path, limit)
			if token != "" {
				url += "&page_token=" + token
			}
			resp, err := ts.Client().Get(url)
			if err != nil {
				t.Fatal(err)
			}
			page, next := names(resp.Body)
			resp.Body.Close()
			if len(page) > limit {
				t.Fatalf("page of %d exceeds limit %d", len(page), limit)
			}
			got = append(got, page...)
			if token = next; token == "" {
				return got
			}
		}
	}
	for mix, kindOf := range mixes {
		for _, total := range []int{0, 1, 20, 23} {
			var sts []jobs.Status
			want := map[string][]string{}
			for i := 0; i < total; i++ {
				st := jobs.Status{Job: jobs.Job{Name: fmt.Sprintf("job-%02d", i), Kind: kindOf(i)}, State: jobs.StatePending}
				sts = append(sts, st)
				for _, filter := range []string{api.KindTSA, api.KindBatch, api.KindEnumeration} {
					if kindMatches(filter, st.Job.Kind) {
						want[filter] = append(want[filter], st.Job.Name)
					}
				}
			}
			s := NewServer()
			s.SetJobs(&goldenController{statuses: sts})
			ts := httptest.NewServer(s.Handler())
			for _, limit := range []int{1, 2, 3, 5, 7, 20, 50} {
				for _, filter := range []string{api.KindTSA, api.KindBatch, api.KindEnumeration} {
					got := walk(t, ts, "/v1/jobs?kind="+filter+"&", limit, func(body io.Reader) ([]string, string) {
						var page api.JobList
						if err := json.NewDecoder(body).Decode(&page); err != nil {
							t.Fatal(err)
						}
						var names []string
						for _, st := range page.Jobs {
							names = append(names, st.Name)
						}
						return names, page.NextPageToken
					})
					if fmt.Sprint(got) != fmt.Sprint(want[filter]) {
						t.Errorf("%s, %d jobs, kind=%s, limit %d:\nwalked %v\nwant   %v", mix, total, filter, limit, got, want[filter])
					}
				}
				got := walk(t, ts, "/v1/enumerations?", limit, func(body io.Reader) ([]string, string) {
					var page api.EnumList
					if err := json.NewDecoder(body).Decode(&page); err != nil {
						t.Fatal(err)
					}
					var names []string
					for _, st := range page.Enumerations {
						names = append(names, st.Name)
					}
					return names, page.NextPageToken
				})
				if fmt.Sprint(got) != fmt.Sprint(want[api.KindEnumeration]) {
					t.Errorf("%s, %d jobs, /v1/enumerations, limit %d:\nwalked %v\nwant   %v", mix, total, limit, got, want[api.KindEnumeration])
				}
			}
			ts.Close()
		}
	}
}

// TestV1UnparkCustomMethod drives the real parked→pending→done loop
// through POST /v1/jobs/{name}:unpark.
func TestV1UnparkCustomMethod(t *testing.T) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	first := true
	disp, err := jobs.NewDispatcher(svc, func(ctx context.Context, job jobs.Job, report func(float64, float64)) error {
		if first {
			first = false
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
	s := NewServer()
	s.SetJobs(disp)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"name":"strapped","keywords":["thor"],"required_accuracy":0.9,` +
		`"domain":["Positive","Negative"],"window":"24h","budget":0.0001}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/strapped" {
		t.Errorf("Location = %q", loc)
	}
	waitFor := func(want jobs.State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := svc.Status("strapped"); st.State == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		st, _ := svc.Status("strapped")
		t.Fatalf("never reached %s (at %s)", want, st.State)
	}
	waitFor(jobs.StateParked)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/strapped:unpark", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Name != "strapped" {
		t.Fatalf("unpark = %d %+v", resp.StatusCode, st)
	}
	waitFor(jobs.StateDone)

	// Unparking the finished job conflicts — structured envelope.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/strapped:unpark", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unpark(done) = %d, want 409", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != api.CodeConflict {
		t.Errorf("code = %q, want conflict", e.Code)
	}
}

// TestCancelTerminalConflictEnvelope: DELETE /v1/jobs/{name} answers an
// already-terminal job with the structured 409 envelope.
func TestCancelTerminalConflictEnvelope(t *testing.T) {
	s := NewServer()
	s.SetJobs(&errController{
		statuses: []jobs.Status{{Job: jobs.Job{Name: "done-job"}, State: jobs.StateDone}},
		err:      fmt.Errorf("%w: done → cancelled for %q", jobs.ErrBadTransition, "done-job"),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/done-job", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE = %d, want 409", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != api.CodeConflict || e.Status != 409 {
		t.Errorf("envelope = %+v", e)
	}
}

// TestJobNameRejectsColon: ":" would collide with the {name}:unpark
// custom-method syntax, so submission rejects it up front.
func TestJobNameRejectsColon(t *testing.T) {
	if err := checkJobName("a:b"); err == nil {
		t.Error("checkJobName accepted a name containing ':'")
	}
	if err := checkJobName("plain-name"); err != nil {
		t.Errorf("checkJobName rejected %q: %v", "plain-name", err)
	}
}

// TestJobErrorMapping pins the sentinel → envelope translation.
func TestJobErrorMapping(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
	}{
		{fmt.Errorf("%w: x", jobs.ErrUnknownJob), api.CodeNotFound, 404},
		{fmt.Errorf("%w: x", jobs.ErrDuplicateJob), api.CodeConflict, 409},
		{fmt.Errorf("%w: x", jobs.ErrBadTransition), api.CodeConflict, 409},
		{fmt.Errorf("disk on fire"), api.CodeInternal, 500},
	}
	for _, c := range cases {
		e := jobError(c.err)
		if e.Code != c.code || e.Status != c.status {
			t.Errorf("jobError(%v) = %+v, want %s/%d", c.err, e, c.code, c.status)
		}
	}
}

// TestNewHTTPServerTimeouts: header/idle deadlines set, read/write left
// zero so SSE streams survive.
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("abuse timeouts unset: %+v", s)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Errorf("SSE-severing timeouts set: read=%v write=%v", s.ReadTimeout, s.WriteTimeout)
	}
}

// TestWriteJSONMarshalFailure pins the satellite fix: an unmarshalable
// value yields a clean 500 envelope, never a partial 200 body.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, map[string]any{"bad": func() {}})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	e := decodeEnvelope(t, rr.Body)
	if e.Code != api.CodeInternal || !strings.Contains(e.Message, "encoding response") {
		t.Errorf("envelope = %+v", e)
	}
}

// TestSSEBadLastEventID: junk resume headers get the 400 envelope, not
// a stream.
func TestSSEBadLastEventID(t *testing.T) {
	s := NewServer()
	s.Update(QueryState{Name: "q", Domain: []string{"a", "b"}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/queries/q/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != api.CodeInvalidArgument {
		t.Errorf("envelope = %+v", e)
	}
}

// TestSubmitRejectsBlankKeywords: a keyword list with no non-empty
// keyword can match nothing, so submit refuses it with a typed 400
// before anything is committed — not after a claim, as a failed job.
func TestSubmitRejectsBlankKeywords(t *testing.T) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	disp, err := jobs.NewDispatcher(svc, func(context.Context, jobs.Job, func(float64, float64)) error { return nil }, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.SetJobs(disp)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := &e2eHarness{t: t, ts: ts, client: ts.Client()}

	sub := submission("blank")
	sub.Keywords = []string{""}
	resp, body := h.do(http.MethodPost, "/v1/jobs", sub)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /v1/jobs with keywords [\"\"] = %d (%s), want 400", resp.StatusCode, body)
	}
	if e := decodeEnvelope(t, strings.NewReader(string(body))); e.Code != api.CodeInvalidArgument {
		t.Errorf("envelope = %+v, want code %s", e, api.CodeInvalidArgument)
	}
	if st, ok := svc.Status("blank"); ok {
		t.Errorf("the refused job was committed: %+v", st)
	}
}

// TestSanitizeRequestID: junk IDs are dropped, clean ones kept.
func TestSanitizeRequestID(t *testing.T) {
	if got := sanitizeRequestID("ok-id_1"); got != "ok-id_1" {
		t.Errorf("clean id mangled to %q", got)
	}
	for _, bad := range []string{"has space", "ctrl\x01", "non-ascii-\xc3\xa9"} {
		if got := sanitizeRequestID(bad); got != "" {
			t.Errorf("sanitizeRequestID(%q) = %q, want rejection", bad, got)
		}
	}
	if got := sanitizeRequestID(strings.Repeat("a", 100)); len(got) != 64 {
		t.Errorf("long id truncated to %d chars, want 64", len(got))
	}
}
