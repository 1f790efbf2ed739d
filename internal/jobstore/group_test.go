package jobstore

// Group commit: the durability contract of Stage/Wait, each line pinned
// by a test — a frame is neither visible nor acknowledged before its
// fsync; WAL order is Stage order; a failed group fails every member and
// everything staged behind it, and the store stays failed; Close leaves
// nothing staged; concurrent committers share fsyncs. The crash sweep at
// the bottom drives rounds of concurrent committers with a crash at
// every failpoint hit.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestLSMStageInvisibleUntilWait(t *testing.T) {
	l, err := OpenLSM(LSMConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := l.Stage([]Op{{Key: "a", Value: []byte("1")}})
	if err != nil {
		t.Fatal(err)
	}
	mustMiss(t, l, "a")
	if got := l.DurableSeq(); got >= seq {
		t.Fatalf("DurableSeq = %d before Wait(%d)", got, seq)
	}
	if got := l.WALSyncs(); got != 0 {
		t.Fatalf("Stage fsynced: WALSyncs = %d", got)
	}
	if err := l.Wait(seq); err != nil {
		t.Fatal(err)
	}
	mustGet(t, l, "a", "1")
	if got := l.DurableSeq(); got != seq {
		t.Fatalf("DurableSeq = %d after Wait(%d)", got, seq)
	}
	// An empty batch stages nothing and needs no wait.
	if seq, err := l.Stage(nil); seq != 0 || err != nil {
		t.Fatalf("Stage(nil) = %d, %v", seq, err)
	}
	if err := l.Wait(0); err != nil {
		t.Fatal(err)
	}
}

// TestLSMOneFsyncPerGroup: frames staged before anyone waits go out as
// one group — one fsync makes them all durable, applied in Stage order.
func TestLSMOneFsyncPerGroup(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 8; i++ {
		seq, err := l.Stage([]Op{{Key: "hot", Value: []byte(fmt.Sprint(i))}, {Key: fmt.Sprintf("k%d", i), Value: []byte("v")}})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
		t.Fatalf("Stage sequences not ascending: %v", seqs)
	}
	// Waiting for the first frame flushes everything staged behind it.
	if err := l.Wait(seqs[0]); err != nil {
		t.Fatal(err)
	}
	if got := l.WALSyncs(); got != 1 {
		t.Fatalf("WALSyncs = %d for one group of 8, want 1", got)
	}
	if got := l.DurableSeq(); got != seqs[7] {
		t.Fatalf("DurableSeq = %d, want %d", got, seqs[7])
	}
	for _, seq := range seqs {
		if err := l.Wait(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.WALSyncs(); got != 1 {
		t.Fatalf("waiting for durable frames fsynced again: WALSyncs = %d", got)
	}
	mustGet(t, l, "hot", "7")
	l.Close()
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "hot", "7")
	mustGet(t, r, "k0", "v")
}

// TestLSMCloseFlushesStaged: a frame nobody waited for (an advisory
// write) still reaches disk when the store is closed.
func TestLSMCloseFlushesStaged(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Stage([]Op{{Key: "advisory", Value: []byte("kept")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableSeq(); got != seq {
		t.Fatalf("Close left frame %d staged (durable %d)", seq, got)
	}
	if err := l.Wait(seq); err != nil {
		t.Fatalf("Wait after Close for a flushed frame: %v", err)
	}
	if _, err := l.Stage([]Op{{Key: "late", Value: nil}}); !errors.Is(err, errLSMClosed) {
		t.Fatalf("Stage after Close: %v", err)
	}
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "advisory", "kept")
}

// TestLSMStagedFrameSurvivesRotation: a checkpoint rotates the WAL
// segment while a frame is staged; the frame lands in the new segment
// and recovery finds it behind the checkpoint.
func TestLSMStagedFrameSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "old", Value: []byte("1")})
	seq, err := l.Stage([]Op{{Key: "new", Value: []byte("2")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, l, "new")
	if err := l.Wait(seq); err != nil {
		t.Fatal(err)
	}
	l.Close()
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "old", "1")
	mustGet(t, r, "new", "2")
	if st := r.BootStats(); st.Runs != 1 || st.TailRecords != 1 {
		t.Fatalf("boot = %+v, want 1 run and the staged frame as the 1-record tail", st)
	}
}

// TestLSMFailStopAfterWALError: a plain storage error (not an injected
// crash) at the WAL write or fsync fails every member of the group and
// everything staged behind it, and the store refuses all later commits
// until it is reopened — it must not keep appending behind a frame that
// was never acknowledged. After reopening, what is on disk is a prefix
// of Stage order and every acknowledged frame is there.
func TestLSMFailStopAfterWALError(t *testing.T) {
	for _, point := range []string{FailWALWrite, FailWALSync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("disk on fire")
			var mu sync.Mutex
			armed := false
			l, err := OpenLSM(LSMConfig{Dir: dir, Fail: func(p string) error {
				mu.Lock()
				defer mu.Unlock()
				if armed && p == point {
					armed = false // one transient error: the store must stay failed regardless
					return boom
				}
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			mustApply(t, l, Op{Key: "acked", Value: []byte("1")})

			mu.Lock()
			armed = true
			mu.Unlock()
			var seqs []uint64
			for i := 0; i < 3; i++ {
				seq, err := l.Stage([]Op{{Key: fmt.Sprintf("g%d", i), Value: []byte("x")}})
				if err != nil {
					t.Fatal(err)
				}
				seqs = append(seqs, seq)
			}
			for _, seq := range seqs {
				if err := l.Wait(seq); !errors.Is(err, boom) {
					t.Fatalf("Wait(%d) = %v, want the group's error", seq, err)
				}
			}
			// Sticky: the failpoint is disarmed, the store is not.
			if _, err := l.Stage([]Op{{Key: "after", Value: []byte("y")}}); !errors.Is(err, boom) {
				t.Fatalf("Stage after a failed group = %v, want %v", err, boom)
			}
			if err := l.Put("after", []byte("y")); !errors.Is(err, boom) {
				t.Fatalf("Put after a failed group = %v, want %v", err, boom)
			}
			if err := l.Checkpoint(); !errors.Is(err, boom) {
				t.Fatalf("Checkpoint after a failed group = %v, want %v", err, boom)
			}
			// Reads of what was durable keep working; nothing of the
			// failed group is visible.
			mustGet(t, l, "acked", "1")
			mustMiss(t, l, "g0")
			l.Close()

			r, err := OpenLSM(LSMConfig{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			got := dump(t, r)
			if got["acked"] != "1" {
				t.Fatalf("acknowledged frame lost: %v", got)
			}
			if _, ok := got["after"]; ok {
				t.Fatalf("frame appended behind the failed group: %v", got)
			}
			// The failed group was never acknowledged: any prefix of it
			// may have reached disk (all of it when only the fsync
			// failed), never a frame without its predecessors.
			seen := true
			for i := 0; i < 3; i++ {
				_, ok := got[fmt.Sprintf("g%d", i)]
				if ok && !seen {
					t.Fatalf("recovered frames are not a prefix of Stage order: %v", got)
				}
				seen = ok
			}
			if point == FailWALWrite && len(got) != 1 {
				t.Fatalf("write failed before any byte was written, yet recovered %v", got)
			}
			if err := r.Put("post", []byte("ok")); err != nil {
				t.Fatalf("write after reopen: %v", err)
			}
		})
	}
}

// TestLSMGroupCommitHammer: 64 committers over one hot key plus their own
// keys. Meant for -race. Every Apply that returned nil is recovered, the
// hot key ends at the highest sequence, and fsyncs < commits.
func TestLSMGroupCommitHammer(t *testing.T) {
	const committers, each = 64, 20
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir, OnlineCheckpoint: true, MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	hotBySeq := map[uint64]string{}
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%02d-i%02d", w, i)
				seq, err := l.Stage([]Op{{Key: "hot", Value: []byte(id)}, {Key: id, Value: []byte("v")}})
				if err == nil {
					mu.Lock()
					hotBySeq[seq] = id
					mu.Unlock()
					err = l.Wait(seq)
				}
				if err != nil {
					t.Errorf("commit %s: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Quiesce()
	syncs, last := l.WALSyncs(), l.DurableSeq()
	if last != committers*each {
		t.Fatalf("DurableSeq = %d, want %d", last, committers*each)
	}
	if syncs >= committers*each {
		t.Fatalf("fsyncs %d not below commits %d: no grouping happened", syncs, committers*each)
	}
	t.Logf("%d commits in %d fsyncs (mean group %.1f)", last, syncs, float64(last)/float64(syncs))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := dump(t, r)
	if len(got) != committers*each+1 {
		t.Fatalf("recovered %d keys, want %d", len(got), committers*each+1)
	}
	if got["hot"] != hotBySeq[last] {
		t.Fatalf("hot = %q, want %q (the highest sequence): WAL order is not Stage order", got["hot"], hotBySeq[last])
	}
}

// groupBatch is one batch of the group crash sweep: two keys of its own
// (so presence after recovery is exact) plus the shared hot key.
type groupBatch struct {
	id    string
	seq   uint64
	acked bool
}

func (b groupBatch) ops() []Op {
	return []Op{
		{Key: b.id + "-a", Value: []byte(b.id)},
		{Key: "hot", Value: []byte(b.id)},
		{Key: b.id + "-b", Value: []byte(b.id)},
	}
}

const (
	groupCommitters = 8
	groupRounds     = 6
)

// runGroups drives groupRounds rounds of groupCommitters concurrent
// committers. In each round every committer stages its batch and only
// then do they all wait, so the whole round sits behind one leader: a
// crash at the WAL write or fsync lands inside a group of eight. It
// returns every batch that was staged, in Stage order, and stops after
// the round in which the store failed.
func runGroups(dir string, online bool, fail FailFunc) ([]groupBatch, error) {
	l, err := OpenLSM(LSMConfig{Dir: dir, MemtableBytes: 256, MaxRuns: 2, BlockSize: 64, OnlineCheckpoint: online, Fail: fail})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var mu sync.Mutex
	var staged []groupBatch
	var firstErr error
	for round := 0; round < groupRounds && firstErr == nil; round++ {
		var stagedAll, done sync.WaitGroup
		stagedAll.Add(groupCommitters)
		for w := 0; w < groupCommitters; w++ {
			done.Add(1)
			go func() {
				defer done.Done()
				b := groupBatch{id: fmt.Sprintf("r%d-w%d", round, w)}
				var err error
				b.seq, err = l.Stage(b.ops())
				stagedAll.Done()
				if err == nil {
					stagedAll.Wait()
					err = l.Wait(b.seq)
					b.acked = err == nil
				}
				mu.Lock()
				defer mu.Unlock()
				if b.seq != 0 {
					staged = append(staged, b)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}()
		}
		done.Wait()
		if online {
			// Background flushes hit failpoints too; settle them so the
			// global hit order is comparable between runs.
			l.Quiesce()
		}
	}
	sort.Slice(staged, func(i, j int) bool { return staged[i].seq < staged[j].seq })
	if firstErr != nil && !errors.Is(firstErr, ErrInjectedCrash) {
		return staged, firstErr
	}
	return staged, nil
}

// groupCrashSweep crashes runGroups at every failpoint hit and checks
// recovery against the contract: acknowledged ⇒ recovered; the recovered
// frames are a prefix of Stage order; each batch is all-or-nothing; the
// hot key holds the last recovered frame's value (frames applied in
// order); recovery is a fixed point.
func groupCrashSweep(t *testing.T, online bool) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	crashedPoints := map[string]int{}
	for _, torn := range []bool{false, true} {
		counter := &crashAt{n: -1}
		staged, err := runGroups(t.TempDir(), online, counter.fn)
		if err != nil {
			t.Fatalf("dry run: %v", err)
		}
		for _, b := range staged {
			if !b.acked {
				t.Fatalf("dry run: batch %s not acknowledged", b.id)
			}
		}
		for n := 1; n <= counter.totalHits(); n++ {
			dir := t.TempDir()
			crash := &crashAt{n: n, torn: torn}
			staged, err := runGroups(dir, online, crash.fn)
			if err != nil {
				t.Fatalf("torn=%v n %d: %v", torn, n, err)
			}
			point := crash.crashedPoint()
			if point == "" {
				continue // scheduling drift: this run had fewer hits
			}
			crashedPoints[point]++

			got := recoveredState(t, dir)
			lastPresent := -1
			for i, b := range staged {
				_, a := got[b.id+"-a"]
				_, bb := got[b.id+"-b"]
				if a != bb {
					t.Fatalf("torn=%v n %d (%s): batch %s recovered in part: %v", torn, n, point, b.id, got)
				}
				if a {
					if lastPresent != i-1 {
						t.Fatalf("torn=%v n %d (%s): batch %s (seq %d) recovered without its predecessor — not a prefix of Stage order", torn, n, point, b.id, b.seq)
					}
					lastPresent = i
				} else if b.acked {
					t.Fatalf("torn=%v n %d (%s): acknowledged batch %s (seq %d) lost", torn, n, point, b.id, b.seq)
				}
			}
			wantHot, haveHot := "", lastPresent >= 0
			if haveHot {
				wantHot = staged[lastPresent].id
			}
			if hot, ok := got["hot"]; ok != haveHot || hot != wantHot {
				t.Fatalf("torn=%v n %d (%s): hot = %q/%v, want %q/%v — frames not applied in Stage order", torn, n, point, hot, ok, wantHot, haveHot)
			}
			wantKeys := 2 * (lastPresent + 1)
			if haveHot {
				wantKeys++
			}
			if len(got) != wantKeys {
				t.Fatalf("torn=%v n %d (%s): recovered %d keys, want %d: %v", torn, n, point, len(got), wantKeys, got)
			}

			l, err := OpenLSM(LSMConfig{Dir: dir})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if err := l.Put("post-crash", []byte("ok")); err != nil {
				t.Fatalf("write after recovery: %v", err)
			}
			l.Close()
			again := recoveredState(t, dir)
			delete(again, "post-crash")
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("torn=%v n %d: recovery not a fixed point:\nfirst  %v\nsecond %v", torn, n, got, again)
			}
		}
	}
	for _, p := range LSMFailpoints {
		if crashedPoints[p] == 0 {
			t.Errorf("failpoint %s never crashed in the group sweep (online=%v)", p, online)
		}
	}
	if crashedPoints[FailWALWrite] < groupRounds || crashedPoints[FailWALSync] < groupRounds {
		t.Errorf("too few crashes inside a group: %v", crashedPoints)
	}
}
