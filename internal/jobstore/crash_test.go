package jobstore

// The crash-equivalence harness. A seeded generator produces op
// sequences (puts, deletes, atomic batches, checkpoints, compactions);
// the harness executes each sequence once per possible crash site —
// the Nth failpoint hit, for every N the crash-free execution performs
// — against a fresh directory, then reopens the store and asserts the
// recovered contents equal the in-memory reference model either
// before or after the in-flight op (batches are atomic: nothing in
// between is legal). Torn-write crashes are exercised at the
// torn-capable points. Finally the harness asserts every named
// failpoint was actually crashed at least once, so a refactor cannot
// silently move the durability boundary out from under the test.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// crashOp is one generated operation.
type crashOp struct {
	kind string // "apply", "checkpoint", "compact"
	ops  []Op
}

// genOps builds a deterministic op sequence from seed. Keys come from
// a small pool so overwrites, deletes and tombstone shadowing all
// happen; values encode (seed, index) so any cross-wiring is visible.
func genOps(seed int64, n int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	var out []crashOp
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 55: // single put
			out = append(out, crashOp{kind: "apply", ops: []Op{{
				Key:   fmt.Sprintf("k%02d", rng.Intn(16)),
				Value: []byte(fmt.Sprintf("s%d-i%d", seed, i)),
			}}})
		case r < 70: // single delete
			out = append(out, crashOp{kind: "apply", ops: []Op{{
				Key:    fmt.Sprintf("k%02d", rng.Intn(16)),
				Delete: true,
			}}})
		case r < 85: // multi-op atomic batch
			batch := make([]Op, 2+rng.Intn(3))
			for j := range batch {
				batch[j] = Op{
					Key:   fmt.Sprintf("k%02d", rng.Intn(16)),
					Value: []byte(fmt.Sprintf("s%d-i%d-j%d", seed, i, j)),
				}
				if rng.Intn(4) == 0 {
					batch[j].Value = nil
					batch[j].Delete = true
				}
			}
			out = append(out, crashOp{kind: "apply", ops: batch})
		case r < 95:
			out = append(out, crashOp{kind: "checkpoint"})
		default:
			out = append(out, crashOp{kind: "compact"})
		}
	}
	return out
}

// applyModel plays one op into the reference model.
func applyModel(m map[string]string, op crashOp) {
	for _, o := range op.ops {
		if o.Delete {
			delete(m, o.Key)
		} else {
			m[o.Key] = string(o.Value)
		}
	}
}

// crashAt is the failpoint hook: crash on the nth hit (1-based), with
// a torn write when torn is set and the point supports it. The mutex
// makes the hook safe for stores that flush in the background.
type crashAt struct {
	mu    sync.Mutex
	n     int
	torn  bool
	hits  int
	point string // which point actually crashed
}

func tornCapable(point string) bool {
	return point == FailWALWrite || point == FailRunWrite
}

func (c *crashAt) fn(point string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	if c.hits == c.n {
		c.point = point
		if c.torn && tornCapable(point) {
			return ErrTornWrite
		}
		return ErrInjectedCrash
	}
	return nil
}

func (c *crashAt) totalHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

func (c *crashAt) crashedPoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.point
}

// runOps executes ops against a store in dir with the given hook,
// returning the index of the op that crashed (-1 if none) and any
// non-crash error.
func runOps(dir string, ops []crashOp, fail FailFunc) (crashed int, err error) {
	l, err := OpenLSM(LSMConfig{Dir: dir, MemtableBytes: 96, MaxRuns: 2, BlockSize: 64, Fail: fail})
	if err != nil {
		return -1, err
	}
	defer l.Close()
	for i, op := range ops {
		var opErr error
		switch op.kind {
		case "apply":
			opErr = l.Apply(op.ops)
		case "checkpoint":
			opErr = l.Checkpoint()
		case "compact":
			opErr = l.Compact()
		}
		if errors.Is(opErr, ErrInjectedCrash) {
			return i, nil
		}
		if opErr != nil {
			return -1, fmt.Errorf("op %d (%s): %w", i, op.kind, opErr)
		}
	}
	return -1, nil
}

// recoveredState reopens dir (no failpoints — the crash already
// happened) and returns the full recovered contents.
func recoveredState(t *testing.T, dir string) map[string]string {
	t.Helper()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer l.Close()
	state := map[string]string{}
	err = l.Scan("", "", func(k string, v []byte) bool {
		state[k] = string(v)
		return true
	})
	if err != nil {
		t.Fatalf("recovery scan: %v", err)
	}
	return state
}

func TestLSMCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	crashedPoints := map[string]bool{}
	for _, seed := range []int64{1, 2, 3} {
		for _, torn := range []bool{false, true} {
			ops := genOps(seed, 40)

			// Crash-free dry run counts the failpoint hits to sweep.
			counter := &crashAt{n: -1}
			if i, err := runOps(t.TempDir(), ops, counter.fn); i != -1 || err != nil {
				t.Fatalf("dry run crashed: op %d, err %v", i, err)
			}
			totalHits := counter.totalHits()
			if totalHits == 0 {
				t.Fatalf("seed %d produced no failpoint hits", seed)
			}

			for n := 1; n <= totalHits; n++ {
				dir := t.TempDir()
				crash := &crashAt{n: n, torn: torn}
				crashedAt, err := runOps(dir, ops, crash.fn)
				if err != nil {
					t.Fatalf("seed %d n %d: %v", seed, n, err)
				}
				if crashedAt == -1 {
					// Compaction scheduling can differ slightly once an
					// earlier trial's torn prefix shifts sizes; a run
					// that completes is simply a smaller sweep.
					continue
				}
				crashedPoints[crash.crashedPoint()] = true

				// Model state before and after the in-flight op: the
				// recovered store must be exactly one of the two.
				before := map[string]string{}
				for _, op := range ops[:crashedAt] {
					applyModel(before, op)
				}
				after := map[string]string{}
				for k, v := range before {
					after[k] = v
				}
				applyModel(after, ops[crashedAt])

				got := recoveredState(t, dir)
				if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
					t.Fatalf("seed %d torn=%v crash at hit %d (%s, op %d %s):\nrecovered %v\nwant before %v\nor after  %v",
						seed, torn, n, crash.crashedPoint(), crashedAt, ops[crashedAt].kind, got, before, after)
				}

				// Recovery is a fixed point: reopening again changes
				// nothing, and the store stays writable.
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
					t.Fatalf("seed %d n %d: recovery not a fixed point:\nfirst  %v\nsecond %v", seed, n, got, again)
				}
			}
		}
	}
	for _, p := range LSMFailpoints {
		if !crashedPoints[p] {
			t.Errorf("failpoint %s never crashed: the sweep lost coverage", p)
		}
	}
}

// TestLSMGroupCrashEquivalence is the sweep over group commit with inline
// checkpoints: eight concurrent committers per group, a crash at every
// failpoint hit (group_test.go holds the driver and the checks).
func TestLSMGroupCrashEquivalence(t *testing.T) { groupCrashSweep(t, false) }
