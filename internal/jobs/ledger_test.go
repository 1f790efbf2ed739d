package jobs

// Tests for the budget ledger's storage: one b/<job> line per job plus
// the stored total under "b". They pin that a store written before the
// split is upgraded in place without changing a bit of the ledger, that
// replay of old and new events mixes, that a charge costs the same
// whatever the ledger's size, and that no value the encoding cannot
// spell ever reaches it.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdas/internal/jobstore"
)

// rawLedger reads the ledger records straight from the store files: the
// value under "b" and every b/ line.
func rawLedger(t *testing.T, dir string) (total string, lines map[string]string) {
	t.Helper()
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	raw, _, err := lsm.Get(lsmBudgetKey)
	if err != nil {
		t.Fatal(err)
	}
	lines = map[string]string{}
	err = lsm.Scan(lsmBudgetPrefix, prefixEnd(lsmBudgetPrefix), func(key string, val []byte) bool {
		lines[strings.TrimPrefix(key, lsmBudgetPrefix)] = string(val)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), lines
}

// writeOldLayout creates an LSM store holding the ledger the way stores
// were written before the split: the whole BudgetState, jobs map and all,
// as one JSON value under "b".
func writeOldLayout(t *testing.T, dir string, ledger BudgetState) {
	t.Helper()
	payload, err := json.Marshal(ledger)
	if err != nil {
		t.Fatal(err)
	}
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := lsm.Apply([]jobstore.Op{{Key: lsmBudgetKey, Value: payload}}); err != nil {
		t.Fatal(err)
	}
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}
}

// awkwardLedger is a ledger whose total is not the float sum of its lines
// in any order a reader might add them up: only storing it keeps it.
func awkwardLedger() BudgetState {
	ledger := BudgetState{Jobs: map[string]float64{}}
	for i, amount := range []float64{0.1, 0.2, 0.07, 1e-9, 3, 0.30000000000000004} {
		ledger.Jobs[fmt.Sprintf("job/%d", i)] = amount
		ledger.GlobalSpent += amount
	}
	ledger.Jobs[""] = 0.5 // a charge may name any job, the empty name included
	ledger.GlobalSpent += 0.5
	return ledger
}

func TestLedgerOldLayoutUpgrade(t *testing.T) {
	want := awkwardLedger()
	dir := t.TempDir()
	writeOldLayout(t, dir, want)

	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Budget(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger after the upgrade = %+v, want %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total, lines := rawLedger(t, dir)
	if strings.Contains(total, "jobs") || !strings.HasPrefix(total, `{"global_spent":`) {
		t.Fatalf(`"b" after the upgrade = %s, want the total alone`, total)
	}
	if len(lines) != len(want.Jobs) {
		t.Fatalf("%d b/ lines after the upgrade, want %d: %v", len(lines), len(want.Jobs), lines)
	}

	// A second open finds nothing to do: it writes nothing and reads the
	// same ledger from the same records.
	walWrites := 0
	s, err = OpenService(ServiceConfig{Dir: dir, StoreFail: func(point string) error {
		if point == jobstore.FailWALWrite {
			walWrites++
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Budget(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger after the second open = %+v, want %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if walWrites != 0 {
		t.Fatalf("second open wrote %d WAL groups, want none", walWrites)
	}
	if total2, lines2 := rawLedger(t, dir); total2 != total || !reflect.DeepEqual(lines2, lines) {
		t.Fatalf("second open changed the records: %s %v, were %s %v", total2, lines2, total, lines)
	}
}

// TestLedgerUpgradeCrashSweep dies at every failpoint the upgrade batch
// passes, whole and torn: the next boot recovers the original ledger,
// whether it finds the old layout again or the new one already there.
func TestLedgerUpgradeCrashSweep(t *testing.T) {
	want := awkwardLedger()
	counter := &svcCrash{n: -1}
	dry := t.TempDir()
	writeOldLayout(t, dry, want)
	s, err := OpenService(ServiceConfig{Dir: dry, StoreFail: counter.fn})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if counter.totalHits() == 0 {
		t.Fatal("the upgrade passed no failpoint")
	}
	for _, torn := range []bool{false, true} {
		for n := 1; n <= counter.totalHits(); n++ {
			dir := t.TempDir()
			writeOldLayout(t, dir, want)
			crash := &svcCrash{n: n, torn: torn}
			if s, err := OpenService(ServiceConfig{Dir: dir, StoreFail: crash.fn}); err == nil {
				s.Close()
			}
			fired, point := crash.state()
			if !fired {
				t.Fatalf("hit %d never fired", n)
			}
			r, err := OpenService(ServiceConfig{Dir: dir})
			if err != nil {
				t.Fatalf("torn=%v crash at hit %d (%s): recovery failed: %v", torn, n, point, err)
			}
			got := r.Budget()
			r.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("torn=%v crash at hit %d (%s): recovered %+v, want %+v", torn, n, point, got, want)
			}
		}
	}
}

func TestLedgerBitEqualAcrossReopen(t *testing.T) { t.Run("lsm", testLedgerBitEqualAcrossReopen) }

func testLedgerBitEqualAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	amounts := []float64{0.1, 0.2, 0.07, 0.35, 1e-7, 2.5e21}
	for i := 0; i < 400; i++ {
		if err := s.ChargeBudget(fmt.Sprintf("job-%02d", rng.Intn(50)), amounts[rng.Intn(len(amounts))]); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Budget()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Budget()
	if math.Float64bits(got.GlobalSpent) != math.Float64bits(want.GlobalSpent) {
		t.Fatalf("total reopened as %v (%#x), was %v (%#x)", got.GlobalSpent, math.Float64bits(got.GlobalSpent), want.GlobalSpent, math.Float64bits(want.GlobalSpent))
	}
	if len(got.Jobs) != len(want.Jobs) || len(want.Jobs) != 50 {
		t.Fatalf("%d lines reopened, %d written, want 50", len(got.Jobs), len(want.Jobs))
	}
	for name, spent := range want.Jobs {
		if math.Float64bits(got.Jobs[name]) != math.Float64bits(spent) {
			t.Fatalf("line %q reopened as %v, was %v", name, got.Jobs[name], spent)
		}
	}
}

// walBytes is the total size of the LSM store's WAL segments under dir.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// openWithLedger opens an LSM service over a ledger of n lines, written
// in the service's own encoding, whose total is the same for every n (so
// that a charge's records are the same length whatever the ledger size).
func openWithLedger(tb testing.TB, n int) (*Service, string) {
	tb.Helper()
	dir := tb.TempDir()
	ledger := BudgetState{GlobalSpent: 4096, Jobs: make(map[string]float64, n)}
	for i := 0; i < n; i++ {
		ledger.Jobs[fmt.Sprintf("job-%06d", i)] = 1
	}
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	if err := lsm.Apply(budgetOps(nil, ledger)); err != nil {
		tb.Fatal(err)
	}
	if err := lsm.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	if err := lsm.Close(); err != nil {
		tb.Fatal(err)
	}
	s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if got := len(s.Budget().Jobs); got != n {
		tb.Fatalf("fixture ledger has %d lines, want %d", got, n)
	}
	return s, dir
}

// TestLedgerChargeCostIsConstant: what one charge stages, writes and
// allocates does not depend on how many jobs were charged before it.
func TestLedgerChargeCostIsConstant(t *testing.T) {
	batch, err := lsmBatch(walEvent{Op: "charge", Budget: &BudgetState{GlobalSpent: 4096.5, Jobs: map[string]float64{"job-000003": 1.5}}}, "")
	if err != nil || len(batch) != 2 {
		t.Fatalf("a charge event stages %d ops (%v), want the job's line and the total", len(batch), err)
	}
	type cost struct {
		bytes  int64
		allocs float64
	}
	measure := func(jobs int) cost {
		s, dir := openWithLedger(t, jobs)
		var c cost
		start := walBytes(t, dir)
		if err := s.ChargeBudget("job-000003", 0.5); err != nil {
			t.Fatal(err)
		}
		c.bytes = walBytes(t, dir) - start
		c.allocs = testing.AllocsPerRun(20, func() {
			if err := s.ChargeBudget("job-000003", 0.5); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	small, large := measure(10), measure(10_000)
	t.Logf("one charge on a ledger of 10 jobs: %+v; of 10 000 jobs: %+v", small, large)
	if small.bytes != large.bytes || small.bytes <= 0 || small.bytes > 128 {
		t.Errorf("a charge writes %d WAL bytes on 10 jobs and %d on 10 000, want the same small frame", small.bytes, large.bytes)
	}
	if large.allocs > small.allocs+2 {
		t.Errorf("a charge allocates %.0f times on 10 jobs and %.0f on 10 000, want no growth", small.allocs, large.allocs)
	}
}

// TestLedgerMixedEventReplay: the append-only log fixture holds a
// snapshot ledger, a full-ledger "budget" event from before the split,
// then a "charge" event written twice and a torn one. It replays to one
// ledger and migrates to the same lines.
func TestLedgerMixedEventReplay(t *testing.T) {
	dir := walStoreDir(t)
	_, want, _ := walStoreWant()
	img, err := jobstore.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := loadLogImage(img)
	img.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed ledger = %+v, want %+v", got, want)
	}

	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatal(err)
	}
	_, lines := rawLedger(t, dir)
	if wantLines := map[string]string{"alpha": "2.5", "beta": "0.5", "gamma": "0.25"}; !reflect.DeepEqual(lines, wantLines) {
		t.Fatalf("migrated ledger lines = %v, want %v", lines, wantLines)
	}
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Budget(); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated ledger = %+v, want %+v", got, want)
	}
	// The migrated ledger keeps charging from where the log stopped.
	if err := r.ChargeBudget("beta", 0.25); err != nil {
		t.Fatal(err)
	}
	want.GlobalSpent, want.Jobs["beta"] = 3.5, 0.75
	if got := r.Budget(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger after a charge = %+v, want %+v", got, want)
	}
}

// TestLedgerRejectsNonFiniteCharge: NaN and ±Inf have no spelling in the
// ledger's encoding (and strconv would write and re-read them), so a
// charge that is one, or that would make a sum one, is refused before it
// touches memory or the store.
func TestLedgerRejectsNonFiniteCharge(t *testing.T) { t.Run("lsm", testLedgerRejectsNonFiniteCharge) }

func testLedgerRejectsNonFiniteCharge(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeBudget("a", 0.75); err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeBudget("big", math.MaxFloat64); err != nil {
		t.Fatal(err)
	}
	want := s.Budget()
	for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		if err := s.ChargeBudget("a", amount); err == nil {
			t.Errorf("ChargeBudget(a, %v) succeeded, want an error", amount)
		}
		if got := s.Budget(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ledger after refusing %v = %+v, want %+v", amount, got, want)
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
	if got := r.Budget(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened ledger = %+v, want %+v", got, want)
	}
}
