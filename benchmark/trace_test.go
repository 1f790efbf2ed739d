package main

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedClippedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: merged, not double-counted
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives the parent: clipped
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 6, Name: "unrelated", Start: 0, End: 100},
	}
	self := selfTimes(spans)
	for id, want := range map[spanID]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsConcurrentSpansAndWritesThem(t *testing.T) {
	tr := newTracer()
	root := tr.begin("e2e", "job", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.end(tr.begin("child", "job", root))
			}
		}()
	}
	wg.Wait()
	open := tr.begin("never-ended", "job", root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("snapshot has %d spans, want 801 (the open span %d dropped)", len(spans), open)
	}
	for _, s := range spans {
		if s.End < s.Start || (s.Name == "child" && s.Parent != root) {
			t.Fatalf("bad span %+v", s)
		}
	}
	path, err := writeSpans(t.TempDir(), "spans.jsonl", spans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 801 {
		t.Errorf("span file has %d lines, want 801", got)
	}
	tr.reset()
	if len(tr.snapshot()) != 0 {
		t.Error("reset kept spans")
	}
}
