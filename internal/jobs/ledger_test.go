package jobs

// Tests for the budget ledger's storage: one b/<job> line per job plus
// the stored total under "b". They pin that a reopened ledger is
// bit-equal, that a charge costs the same whatever the ledger's size,
// and that no value the encoding cannot spell ever reaches it.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cdas/internal/jobstore"
)

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
