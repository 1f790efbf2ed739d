package jobs

// Migration tests: WAL→LSM conversion round-trips the full service
// state (lifecycle records, budget ledger, secondary indexes), is
// resumable after an interruption, refuses bad inputs, and leaves a
// working rollback path.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdas/internal/jobstore"
)

// seedWALStore drives random lifecycle traffic into a WAL-engine store
// and returns its normalized view and budget (the migration's ground
// truth).
func seedWALStore(t *testing.T, dir string, seed int64, n int) (map[string]normStatus, BudgetState) {
	t.Helper()
	s, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineWAL, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range genSvcOps(seed, n) {
		applySvcOp(s, op)
	}
	want := normalize(s)
	budget := s.Budget()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("seed produced no jobs")
	}
	return want, budget
}

func TestMigrateStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want, wantBudget := seedWALStore(t, dir, 77, 200)

	res, err := MigrateStore(dir, t.Logf)
	if err != nil {
		t.Fatalf("MigrateStore: %v", err)
	}
	if res.Jobs != len(want) {
		t.Fatalf("migrated %d jobs, want %d", res.Jobs, len(want))
	}
	if len(res.Retired) == 0 {
		t.Fatal("no WAL files retired")
	}

	// The converted store holds the ledger the way the service writes it:
	// the total alone under "b", one line per job under b/.
	if len(wantBudget.Jobs) == 0 {
		t.Fatal("seed charged no job: the ledger layout goes unchecked")
	}
	total, lines := rawLedger(t, dir)
	if strings.Contains(total, "jobs") || len(lines) != len(wantBudget.Jobs) {
		t.Fatalf("converted ledger: b = %s with %d b/ lines, want the total alone and %d lines", total, len(lines), len(wantBudget.Jobs))
	}

	// The migrated store must boot as the LSM engine and serve the
	// exact state the WAL engine held (normalize folds the shared
	// requeue-Running-on-boot rule).
	r, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM})
	if err != nil {
		t.Fatalf("boot after migration: %v", err)
	}
	got := normalize(r)
	gotBudget := r.Budget()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated state differs:\ngot  %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotBudget, wantBudget) {
		t.Fatalf("migrated budget = %+v, want %+v", gotBudget, wantBudget)
	}
	// And it must keep working as a live store.
	if _, err := r.Submit(testJob("post-migration")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Status("post-migration"); !ok {
		t.Fatal("write to migrated store lost across reopen")
	}
}

func TestMigrateStoreResumable(t *testing.T) {
	dir := t.TempDir()
	want, _ := seedWALStore(t, dir, 78, 120)

	// Fake an interrupted migration: a partial LSM store holding a
	// record the real conversion would never write.
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(lsmPrimaryKey("ghost-from-partial-run"), []byte("{")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The service must refuse to boot the ambiguous directory...
	if _, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM}); err == nil || !strings.Contains(err.Error(), "interrupted migration") {
		t.Fatalf("boot over partial migration: err = %v, want interrupted-migration refusal", err)
	}
	// ...and a re-run must discard the partial store and finish.
	res, err := MigrateStore(dir, nil)
	if err != nil {
		t.Fatalf("resumed MigrateStore: %v", err)
	}
	if !res.Resumed {
		t.Fatal("Resumed = false, want true")
	}
	r, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineLSM})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !reflect.DeepEqual(normalize(r), want) {
		t.Fatal("resumed migration state differs from WAL ground truth")
	}
	if _, ok := r.Status("ghost-from-partial-run"); ok {
		t.Fatal("partial-run record survived the resume")
	}
}

func TestMigrateStoreEdgeCases(t *testing.T) {
	// Empty directory: nothing to migrate.
	if _, err := MigrateStore(t.TempDir(), nil); err == nil {
		t.Fatal("migrating an empty dir succeeded")
	}

	// Already migrated: distinct sentinel, so CLIs can treat a re-run
	// as success.
	dir := t.TempDir()
	seedWALStore(t, dir, 79, 40)
	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateStore(dir, nil); !errors.Is(err, ErrAlreadyMigrated) {
		t.Fatalf("second migrate: %v, want ErrAlreadyMigrated", err)
	}

	// A live server holds the store lock: migration must refuse.
	lockedDir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: lockedDir, Engine: EngineWAL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testJob("held")); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := MigrateStore(lockedDir, nil); !errors.Is(err, jobstore.ErrLocked) {
		t.Fatalf("migrating a locked store: %v, want ErrLocked", err)
	}
}

func TestMigrateStoreRollback(t *testing.T) {
	dir := t.TempDir()
	want, wantBudget := seedWALStore(t, dir, 80, 100)
	res, err := MigrateStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rollback: remove the LSM files, restore the retired WAL files,
	// boot the WAL engine — the original store, untouched.
	if err := jobstore.RemoveLSMFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, retired := range res.Retired {
		if err := os.Rename(retired, strings.TrimSuffix(retired, ".retired")); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenService(ServiceConfig{Dir: dir, Engine: EngineWAL})
	if err != nil {
		t.Fatalf("rollback boot: %v", err)
	}
	defer s.Close()
	if !reflect.DeepEqual(normalize(s), want) {
		t.Fatal("rolled-back state differs from the original")
	}
	if !reflect.DeepEqual(s.Budget(), wantBudget) {
		t.Fatal("rolled-back budget differs from the original")
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LSM MANIFEST still present after rollback cleanup (stat err %v)", err)
	}
}
