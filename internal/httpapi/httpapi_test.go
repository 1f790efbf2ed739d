package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cdas/api"
	"cdas/internal/exec"
)

func demoState() QueryState {
	return QueryState{
		Name:        "Kung Fu Panda 2",
		Domain:      []string{"Positive", "Neutral", "Negative"},
		Percentages: map[string]float64{"Positive": 0.7, "Neutral": 0.1, "Negative": 0.2},
		Reasons:     map[string][]string{"Positive": {"hilarious", "gorgeous"}},
		Items:       20,
		Progress:    0.33,
	}
}

func TestUpdateAndGet(t *testing.T) {
	s := NewServer()
	s.Update(demoState())
	st, ok := s.Get("Kung Fu Panda 2")
	if !ok || st.Items != 20 {
		t.Fatalf("Get = %+v/%v", st, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("missing query found")
	}
	if states := s.queryStates(); len(states) != 1 || states[0].Name != "Kung Fu Panda 2" {
		t.Errorf("queryStates = %+v", states)
	}
}

func TestUpdateFromSummary(t *testing.T) {
	s := NewServer()
	sum := exec.Summary{
		Domain:      []string{"a", "b"},
		Percentages: map[string]float64{"a": 0.6, "b": 0.4},
		Reasons:     map[string][]string{"a": {"word"}},
		Items:       5,
	}
	s.UpdateFromSummary("q", sum, 1, true)
	st, ok := s.Get("q")
	if !ok || !st.Done || st.Items != 5 {
		t.Fatalf("state = %+v/%v", st, ok)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := NewServer()
	s.Update(demoState())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/queries/Kung%20Fu%20Panda%202")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st QueryState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Percentages["Positive"] != 0.7 {
		t.Errorf("decoded state = %+v", st)
	}
}

func TestQueryEndpointNotFound(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/queries/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestListEndpoint(t *testing.T) {
	s := NewServer()
	s.Update(demoState())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.QueryList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Queries) != 1 || list.Queries[0].Name != "Kung Fu Panda 2" {
		t.Errorf("queries = %+v", list.Queries)
	}
}

func TestIndexPage(t *testing.T) {
	s := NewServer()
	s.Update(demoState())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"Kung Fu Panda 2", "Positive", "70.0%", "hilarious"} {
		if !strings.Contains(body, want) {
			t.Errorf("index page missing %q", want)
		}
	}
}

func TestIndexPageEmpty(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "No queries registered") {
		t.Error("empty index should say so")
	}
}
