package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestV1GoldenResponses locks every v1 response shape — success bodies,
// error envelopes and the paginated list — to golden files, sharing the
// -update machinery with the legacy goldens.
func TestV1GoldenResponses(t *testing.T) {
	ts := httptest.NewServer(goldenServer().Handler())
	defer ts.Close()
	bare := httptest.NewServer(NewServer().Handler())
	defer bare.Close()
	// A separate fixture carries tenant scopes, so the tenant-filter
	// golden exists without disturbing the tenantless legacy bodies.
	tenants := httptest.NewServer(tenantServer().Handler())
	defer tenants.Close()
	// Likewise the enumeration fixture: the extra job only exists on this
	// server, so the pre-existing list goldens keep their bytes.
	enums := httptest.NewServer(enumServer().Handler())
	defer enums.Close()

	cases := []struct {
		golden string
		method string
		path   string
		body   string
		status int
		server *httptest.Server
	}{
		{"v1_healthz.golden", http.MethodGet, "/v1/healthz", "", 200, ts},
		{"v1_jobs_list.golden", http.MethodGet, "/v1/jobs", "", 200, ts},
		{"v1_jobs_list_page.golden", http.MethodGet, "/v1/jobs?limit=2", "", 200, ts},
		{"v1_jobs_list_parked.golden", http.MethodGet, "/v1/jobs?state=parked", "", 200, ts},
		{"v1_jobs_list_tenant.golden", http.MethodGet, "/v1/jobs?tenant=acme", "", 200, tenants},
		{"v1_jobs_get.golden", http.MethodGet, "/v1/jobs/panda", "", 200, ts},
		{"v1_queries.golden", http.MethodGet, "/v1/queries", "", 200, ts},
		{"v1_query.golden", http.MethodGet, "/v1/queries/panda", "", 200, ts},
		{"v1_scheduler.golden", http.MethodGet, "/v1/scheduler", "", 200, ts},
		{"v1_metrics.golden", http.MethodGet, "/v1/metrics", "", 200, ts},
		{"v1_aggregators.golden", http.MethodGet, "/v1/aggregators", "", 200, ts},
		// The enumeration surface and the kind filter.
		{"v1_enums_list.golden", http.MethodGet, "/v1/enumerations", "", 200, enums},
		{"v1_enums_get.golden", http.MethodGet, "/v1/enumerations/finch", "", 200, enums},
		{"v1_jobs_list_kind.golden", http.MethodGet, "/v1/jobs?kind=enumeration", "", 200, enums},
		{"v1_jobs_list_kind_batch.golden", http.MethodGet, "/v1/jobs?kind=batch", "", 200, enums},
		// Error envelopes.
		{"v1_error_job_notfound.golden", http.MethodGet, "/v1/jobs/nope", "", 404, ts},
		{"v1_error_query_notfound.golden", http.MethodGet, "/v1/queries/nope", "", 404, ts},
		{"v1_error_bad_limit.golden", http.MethodGet, "/v1/jobs?limit=many", "", 400, ts},
		{"v1_error_bad_state.golden", http.MethodGet, "/v1/jobs?state=limbo", "", 400, ts},
		{"v1_error_bad_kind.golden", http.MethodGet, "/v1/jobs?kind=mystery", "", 400, ts},
		{"v1_error_enum_notfound.golden", http.MethodGet, "/v1/enumerations/nope", "", 404, ts},
		{"v1_error_bad_token.golden", http.MethodGet, "/v1/jobs?page_token=%21%21", "", 400, ts},
		// "Li4vZXZpbA" decodes cleanly — to "../evil", which no submission
		// could ever have named, so the token is forged rather than stale.
		{"v1_error_bad_token_name.golden", http.MethodGet, "/v1/jobs?page_token=Li4vZXZpbA", "", 400, ts},
		{"v1_error_bad_action.golden", http.MethodPost, "/v1/jobs/panda:frobnicate", "", 400, ts},
		{"v1_error_no_action.golden", http.MethodPost, "/v1/jobs/panda", "", 404, ts},
		{"v1_error_no_route.golden", http.MethodGet, "/v1/nope", "", 404, ts},
		{"v1_error_bad_submission.golden", http.MethodPost, "/v1/jobs", "{not json", 400, ts},
		{"v1_error_unknown_aggregator.golden", http.MethodPost, "/v1/jobs", `{"name":"agg-test","aggregator":"consensus-9000"}`, 400, ts},
		{"v1_error_unattached_jobs.golden", http.MethodGet, "/v1/jobs", "", 503, bare},
		{"v1_error_unattached_sched.golden", http.MethodGet, "/v1/scheduler", "", 503, bare},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var body io.Reader
			if c.body != "" {
				body = strings.NewReader(c.body)
			}
			req, err := http.NewRequest(c.method, c.server.URL+c.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.server.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if id := resp.Header.Get("X-Request-Id"); id == "" {
				t.Error("response missing X-Request-Id")
			}
			if dep := resp.Header.Get("Deprecation"); dep != "" {
				t.Errorf("v1 route carries Deprecation header %q", dep)
			}
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s %s drifted from %s:\n got: %s\nwant: %s",
					c.method, c.path, path, got, want)
			}
		})
	}
}
