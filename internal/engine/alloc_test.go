package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cdas/internal/crowd"
	"cdas/internal/randx"
)

// replayPlatform hands every HIT the same n pre-built assignments. Publish
// only rewrites their answer buffers for the HIT's questions, so replaying
// allocates nothing and every allocation a HIT makes is the engine's own.
// With rotate set the answers come back out of the published order, so
// every positional read misses and takes the checked fallback.
type replayPlatform struct {
	workers []crowd.Worker
	assign  []crowd.Assignment
	rotate  bool
	run     replayRun
}

type replayRun struct {
	hit     crowd.HIT
	assign  []crowd.Assignment
	next    int
	charged float64
}

func (r *replayRun) Next() (crowd.Assignment, bool) {
	if r.next == len(r.assign) {
		return crowd.Assignment{}, false
	}
	r.next++
	r.charged += 0.01
	return r.assign[r.next-1], true
}
func (r *replayRun) Cancel()          { r.next = len(r.assign) }
func (r *replayRun) Charged() float64 { return r.charged }
func (r *replayRun) HIT() crowd.HIT   { return r.hit }

func newReplayPlatform(n, questions int, rotate bool) *replayPlatform {
	p := &replayPlatform{workers: make([]crowd.Worker, n), assign: make([]crowd.Assignment, n), rotate: rotate}
	for k := range p.workers {
		p.workers[k].ID = fmt.Sprintf("w%02d", k)
		p.assign[k] = crowd.Assignment{Worker: &p.workers[k], Answers: make([]crowd.Answer, questions)}
	}
	return p
}

// Publish fills answer buffers in place: worker k answers the question at
// position i with its truth unless k, i and the ID's length sum to a
// multiple of three, when it picks a label by k and i instead.
func (p *replayPlatform) Publish(hit crowd.HIT, n int) (Run, error) {
	if n > len(p.assign) {
		n = len(p.assign)
	}
	for k := range p.assign[:n] {
		answers := p.assign[k].Answers[:len(hit.Questions)]
		for i, q := range hit.Questions {
			v := q.Truth
			if (k+len(q.ID)+i)%3 == 0 {
				v = q.Domain[(k+i)%len(q.Domain)]
			}
			at := i
			if p.rotate {
				at = (i + 1) % len(answers)
			}
			answers[at] = crowd.Answer{QuestionID: q.ID, Value: v}
		}
		p.assign[k].Answers = answers
	}
	p.run = replayRun{hit: hit, assign: p.assign[:n]}
	return &p.run, nil
}

// batchAllocs measures the allocations of one HIT over 20 real questions
// at n workers.
func batchAllocs(t *testing.T, n int, rotate bool) (float64, BatchResult) {
	t.Helper()
	const questions = 20
	p := newReplayPlatform(n, questions+5, rotate)
	e, err := New(p, nil, Config{JobName: "alloc", HITSize: questions + 5, MaxWorkers: n})
	if err != nil {
		t.Fatal(err)
	}
	real := makeQuestions("r", questions, "pos")
	golden := makeQuestions("g", 10, "neg")
	job := batchJob{hitID: "h", real: real, golden: golden, workers: n, meanAcc: 0.7, snap: e.store.Snapshot("alloc")}
	var res BatchResult
	allocs := testing.AllocsPerRun(20, func() {
		job.rng = randx.New(7) // the same layout every run
		if res, err = e.runBatch(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	})
	if res.UsedWorkers != n || len(res.Results) != questions {
		t.Fatalf("n=%d: used %d workers, %d results", n, res.UsedWorkers, len(res.Results))
	}
	return allocs, res
}

// TestVoteLoopAllocationsFlatInWorkers pins the vote store: every vote
// lands in the HIT's one slab, so five times the workers must not mean
// more allocations, beyond a few for the per-HIT maps sized by n.
func TestVoteLoopAllocationsFlatInWorkers(t *testing.T) {
	small, _ := batchAllocs(t, 5, false)
	large, _ := batchAllocs(t, 25, false)
	t.Logf("allocs per HIT: n=5 %.0f, n=25 %.0f", small, large)
	if large > small+12 {
		t.Errorf("n=25 makes %.0f allocations, n=5 %.0f: the vote loop allocates per vote", large, small)
	}
}

// TestOutOfOrderAnswersFallBack: a platform whose assignments do not list
// answers in the published order must give the same results through the
// checked fallback, still without allocating per vote.
func TestOutOfOrderAnswersFallBack(t *testing.T) {
	allocs, inOrder := batchAllocs(t, 25, false)
	fallback, rotated := batchAllocs(t, 25, true)
	if !reflect.DeepEqual(inOrder, rotated) {
		t.Errorf("out-of-order answers changed the batch:\n in order %+v\n rotated  %+v", inOrder, rotated)
	}
	if fallback > allocs {
		t.Errorf("the fallback allocates: %.0f allocations, %.0f in order", fallback, allocs)
	}
}
