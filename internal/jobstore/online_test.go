package jobstore

// Tests for the online (off-commit-path) checkpoint mode: commits keep
// flowing while a checkpoint flushes in the background, failures
// surface through OnCheckpoint without poisoning the store, and the
// crash-equivalence property holds when the crash lands inside an
// in-flight background flush.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestLSMApplyNotBlockedByCheckpoint parks a background checkpoint
// flush on a failpoint and proves the commit path keeps accepting
// writes — and reads see the frozen data — the whole time.
func TestLSMApplyNotBlockedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	l, err := OpenLSM(LSMConfig{
		Dir:              dir,
		OnlineCheckpoint: true,
		OnCheckpoint:     func(err error) { done <- err },
		Fail: func(point string) error {
			if point == FailRunSync {
				once.Do(func() {
					close(parked)
					<-release
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 10; i++ {
		mustApply(t, l, Op{Key: fmt.Sprintf("pre%02d", i), Value: []byte("v")})
	}
	started, err := l.CheckpointAsync()
	if err != nil || !started {
		t.Fatalf("CheckpointAsync: started=%v err=%v", started, err)
	}
	<-parked

	// The flush is wedged mid-run-write. Commits and reads must not be.
	for i := 0; i < 50; i++ {
		applyDone := make(chan error, 1)
		go func(i int) {
			applyDone <- l.Apply([]Op{{Key: fmt.Sprintf("live%02d", i), Value: []byte("w")}})
		}(i)
		select {
		case err := <-applyDone:
			if err != nil {
				t.Fatalf("apply during checkpoint: %v", err)
			}
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatal("Apply blocked behind an in-flight checkpoint")
		}
	}
	mustGet(t, l, "pre03", "v")  // frozen view still readable
	mustGet(t, l, "live07", "w") // live memtable too

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint flush: %v", err)
	}
	l.Quiesce()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "pre03", "v")
	mustGet(t, r, "live49", "w")
	if r.BootStats().Runs != 1 {
		t.Fatalf("runs after online checkpoint = %d, want 1", r.BootStats().Runs)
	}
}

// TestLSMCheckpointFailureRecovers injects a plain (non-crash) storage
// error into one checkpoint flush: the error reaches OnCheckpoint, the
// store keeps serving reads and writes, nothing committed is lost, and
// a retried checkpoint succeeds.
func TestLSMCheckpointFailureRecovers(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk full")
	var mu sync.Mutex
	failing := true
	done := make(chan error, 4)
	l, err := OpenLSM(LSMConfig{
		Dir:              dir,
		OnlineCheckpoint: true,
		OnCheckpoint:     func(err error) { done <- err },
		Fail: func(point string) error {
			mu.Lock()
			defer mu.Unlock()
			if failing && point == FailRunSync {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 8; i++ {
		mustApply(t, l, Op{Key: fmt.Sprintf("k%02d", i), Value: []byte("v1")})
	}
	started, err := l.CheckpointAsync()
	if err != nil || !started {
		t.Fatalf("CheckpointAsync: started=%v err=%v", started, err)
	}
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("OnCheckpoint err = %v, want %v", err, boom)
	}

	// Not poisoned: the frozen entries merged back and the store works.
	mustGet(t, l, "k03", "v1")
	mustApply(t, l, Op{Key: "k03", Value: []byte("v2")})
	mustGet(t, l, "k03", "v2")

	mu.Lock()
	failing = false
	mu.Unlock()
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if got := l.Runs(); got != 1 {
		t.Fatalf("runs after retry = %d, want 1", got)
	}
	l.Close()
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "k03", "v2")
	mustGet(t, r, "k07", "v1")
}

// TestLSMCloseIdempotentAndFailsMutations: Close twice is fine; Apply,
// Checkpoint and Compact after Close all fail.
func TestLSMCloseIdempotentAndFailsMutations(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "k", Value: []byte("v")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Put("x", []byte("y")); !errors.Is(err, errLSMClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if err := l.Checkpoint(); !errors.Is(err, errLSMClosed) {
		t.Fatalf("Checkpoint after close: %v", err)
	}
	if _, err := l.CheckpointAsync(); !errors.Is(err, errLSMClosed) {
		t.Fatalf("CheckpointAsync after close: %v", err)
	}
	if err := l.Compact(); !errors.Is(err, errLSMClosed) {
		t.Fatalf("Compact after close: %v", err)
	}
}

// TestLSMOnlineCrashEquivalence sweeps injected crashes over op
// sequences with background checkpointing on, where the crash usually
// lands inside an in-flight flush. The contract is acked-ops
// durability: every Apply that returned nil before the crash was
// detected must be recovered; the op that surfaced the crash error may
// be in either state (its own WAL write might be the crash site); no
// other outcome is legal. Checkpoint flushes never change logical
// state, so a crash inside one is invisible to the recovered contents.
func TestLSMOnlineCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	for _, seed := range []int64{11, 12} {
		for _, torn := range []bool{false, true} {
			ops := genOps(seed, 40)
			run := func(dir string, fail FailFunc) (acked int, sawCrash bool, err error) {
				l, err := OpenLSM(LSMConfig{
					Dir: dir, MemtableBytes: 96, MaxRuns: 2, BlockSize: 64,
					OnlineCheckpoint: true, Fail: fail,
				})
				if err != nil {
					return 0, false, err
				}
				defer l.Close()
				for i, op := range ops {
					var opErr error
					switch op.kind {
					case "apply":
						opErr = l.Apply(op.ops)
					case "checkpoint":
						// Online mode: the service never calls the
						// blocking Checkpoint; model that.
						_, opErr = l.CheckpointAsync()
					case "compact":
						opErr = l.Compact()
					}
					if errors.Is(opErr, ErrInjectedCrash) {
						return i, true, nil
					}
					if opErr != nil {
						return i, false, fmt.Errorf("op %d (%s): %w", i, op.kind, opErr)
					}
				}
				// The crash may fire inside a flush that outlives the
				// op loop; Quiesce so runs are comparable.
				l.Quiesce()
				return len(ops), false, nil
			}

			counter := &crashAt{n: -1}
			if _, crashed, err := run(t.TempDir(), counter.fn); crashed || err != nil {
				t.Fatalf("dry run: crashed=%v err=%v", crashed, err)
			}
			totalHits := counter.totalHits()
			if totalHits == 0 {
				t.Fatalf("seed %d produced no failpoint hits", seed)
			}

			for n := 1; n <= totalHits; n++ {
				dir := t.TempDir()
				crash := &crashAt{n: n, torn: torn}
				acked, sawCrash, err := run(dir, crash.fn)
				if err != nil {
					t.Fatalf("seed %d n %d: %v", seed, n, err)
				}
				// Ops [0, acked) returned nil and must be durable. When
				// an op surfaced the crash, that op itself is the only
				// ambiguity; background-flush crashes detected at a
				// later op leave that later op entirely unexecuted
				// (poisoned stores reject before writing).
				before := map[string]string{}
				for _, op := range ops[:acked] {
					applyModel(before, op)
				}
				candidates := []map[string]string{before}
				if sawCrash && acked < len(ops) {
					after := map[string]string{}
					for k, v := range before {
						after[k] = v
					}
					applyModel(after, ops[acked])
					candidates = append(candidates, after)
				}
				got := recoveredState(t, dir)
				ok := false
				for _, want := range candidates {
					if reflect.DeepEqual(got, want) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("seed %d torn=%v n %d (crash %s): recovered %v not among %v",
						seed, torn, n, crash.crashedPoint(), got, candidates)
				}
			}
		}
	}
}

// TestLSMOnlineGroupCrashEquivalence is the group-commit sweep with
// background checkpointing on, so crashes also land inside a flush that
// runs while groups are being committed.
func TestLSMOnlineGroupCrashEquivalence(t *testing.T) { groupCrashSweep(t, true) }
