package jobs

import (
	"strings"
	"testing"
	"time"
)

func continuousTestJob(name string) Job {
	j := testJob(name)
	j.Kind = KindContinuous
	j.Stream = &StreamSpec{Items: 24, Rate: 1, SourceSeed: 5, WindowCapacity: 5, MaxBacklog: 10}
	return j
}

// TestStreamMarkCommit pins the in-memory mark contract: marks start
// absent, round-trip through CommitStreamMark/StreamMarkFor, may
// re-commit the same window (an in-flight window replayed after a
// crash), and never regress.
func TestStreamMarkCommit(t *testing.T) {
	s, err := OpenService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(continuousTestJob("feed")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.StreamMarkFor("feed"); ok {
		t.Fatal("mark present before any commit")
	}
	mark := StreamMark{Window: 0, Spent: 0.25, Seen: 12, Matched: 10, Dropped: 1, Degraded: 1}
	if err := s.CommitStreamMark("feed", mark); err != nil {
		t.Fatal(err)
	}
	got, ok := s.StreamMarkFor("feed")
	if !ok || got != mark {
		t.Fatalf("StreamMarkFor = %+v, %v, want %+v", got, ok, mark)
	}
	// Same window again is allowed (at-least-once close), higher wins.
	if err := s.CommitStreamMark("feed", mark); err != nil {
		t.Fatalf("re-commit of the same window: %v", err)
	}
	mark.Window, mark.Spent = 1, 0.5
	if err := s.CommitStreamMark("feed", mark); err != nil {
		t.Fatal(err)
	}
	// A regressing window is a runner bug and must be rejected without
	// clobbering the committed mark.
	err = s.CommitStreamMark("feed", StreamMark{Window: 0})
	if err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("regressing commit err = %v", err)
	}
	if got, _ := s.StreamMarkFor("feed"); got != mark {
		t.Fatalf("mark after rejected regression = %+v, want %+v", got, mark)
	}
}

// TestStreamMarkRecovery pins durability: committed
// marks survive close/reopen exactly, uncommitted progress does not
// exist, and marks for distinct jobs stay distinct.
func TestStreamMarkRecovery(t *testing.T) { t.Run("lsm", testStreamMarkRecovery) }

func testStreamMarkRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	marks := map[string]StreamMark{
		"feed/a": {Window: 3, Spent: 1.25, Seen: 48, Matched: 40, Dropped: 5, Degraded: 3},
		"feed-b": {Window: 0, Spent: 0.1, Seen: 7, Matched: 7},
	}
	for name, mark := range marks {
		if _, err := s.Submit(continuousTestJob(name)); err != nil {
			t.Fatal(err)
		}
		// Walk the mark up so recovery sees only the newest record.
		for w := 0; w <= mark.Window; w++ {
			step := mark
			step.Window = w
			if err := s.CommitStreamMark(name, step); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, want := range marks {
		got, ok := r.StreamMarkFor(name)
		if !ok || got != want {
			t.Errorf("%s: recovered mark = %+v, %v, want %+v", name, got, ok, want)
		}
	}
	if _, ok := r.StreamMarkFor("ghost"); ok {
		t.Error("mark recovered for a job that never committed one")
	}
	// New commits keep working after recovery.
	next := marks["feed/a"]
	next.Window++
	if err := r.CommitStreamMark("feed/a", next); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSpecValidate sweeps the spec's reject conditions and the
// submit-time coupling between Kind and Stream.
func TestStreamSpecValidate(t *testing.T) {
	if err := (StreamSpec{Items: 10, Rate: 2, TargetFill: time.Second, Lateness: time.Second}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, sp := range map[string]StreamSpec{
		"negative lateness":    {Lateness: -time.Second},
		"negative target fill": {TargetFill: -time.Second},
		"negative capacity":    {WindowCapacity: -1},
		"negative backlog":     {MaxBacklog: -1},
		"negative items":       {Items: -1},
		"negative rate":        {Rate: -1},
	} {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
	}

	s, err := OpenService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Continuous without a spec, and a spec on a batch kind, both fail.
	j := testJob("bare")
	j.Kind = KindContinuous
	if _, err := s.Submit(j); err == nil || !strings.Contains(err.Error(), "stream spec") {
		t.Errorf("continuous without spec: %v", err)
	}
	j = testJob("batchspec")
	j.Stream = &StreamSpec{Items: 1}
	if _, err := s.Submit(j); err == nil || !strings.Contains(err.Error(), "only valid") {
		t.Errorf("stream spec on batch kind: %v", err)
	}
	j = continuousTestJob("badspec")
	j.Stream.Rate = -2
	if _, err := s.Submit(j); err == nil || !strings.Contains(err.Error(), "rate") {
		t.Errorf("invalid spec at submit: %v", err)
	}
}
