package jobs

// Migration tests: converting the committed append-only log fixture
// (testdata/walstore, written by gen_walstore.go) round-trips the full
// service state (lifecycle records, budget ledger, stream marks,
// secondary indexes), is resumable after an interruption, refuses bad
// inputs, and leaves a working rollback path.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cdas/internal/jobstore"
)

// walStoreFiles are the append-only log fixture's files.
var walStoreFiles = []string{"wal.dat", "snapshot.dat"}

// walStoreDir copies the append-only log fixture into a fresh directory.
func walStoreDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range walStoreFiles {
		data, err := os.ReadFile(filepath.Join("testdata", "walstore", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// walStoreJob is the job every fixture record carries, bar name, tenant
// and priority.
func walStoreJob(name, tenant string, priority int) Job {
	q := Query{Keywords: []string{"iPhone4S"}, RequiredAccuracy: 0.9, Domain: []string{"Good", "Bad"},
		Start: time.Date(2011, 10, 14, 0, 0, 0, 0, time.UTC), Window: 24 * time.Hour}
	return Job{Name: name, Kind: KindTSA, Tenant: tenant, Priority: priority, Query: q}
}

// walStoreWant is what the fixture holds: the jobs as a booted service
// serves them (beta was running, so boot requeues it), the ledger and
// the stream marks. The stale frame below the snapshot watermark (alpha
// back to running) and the torn last charge must not show.
func walStoreWant() (map[string]normStatus, BudgetState, map[string]StreamMark) {
	jobs := map[string]normStatus{
		"alpha": {Job: walStoreJob("alpha", "acme", 1), State: StateDone, Attempts: 1, Progress: 1, Cost: 2.5},
		"beta":  {Job: walStoreJob("beta", "", 0), State: StatePending, Attempts: 1, Cost: 0.75},
		"gamma": {Job: walStoreJob("gamma", "acme", -2), State: StateFailed, Attempts: 1, Cost: 0.25, Error: "domain superset: jobs: permanent job failure"},
		"delta": {Job: walStoreJob("delta", "globex", 2), State: StateCancelled},
	}
	budget := BudgetState{GlobalSpent: 3.25, Jobs: map[string]float64{"alpha": 2.5, "beta": 0.5, "gamma": 0.25}}
	enum := &EnumProgress{
		Counts:        map[string]int{"adams": 1, "lincoln": 1, "obama": 2, "washington": 1},
		Display:       map[string]string{"adams": "Adams", "lincoln": "Lincoln", "obama": "Obama", "washington": "Washington"},
		FirstBatch:    map[string]int{"adams": 0, "lincoln": 0, "obama": 0, "washington": 0},
		Contributions: 5,
	}
	marks := map[string]StreamMark{
		"feed":    {Window: 2, Spent: 0.3, Seen: 36, Matched: 27, Dropped: 2, Degraded: 1},
		"harvest": {Window: 0, Spent: 0.22, Seen: 5, Matched: 4, Enum: enum},
	}
	return jobs, budget, marks
}

// checkWALStoreServed asserts a booted service serves exactly the
// fixture's state.
func checkWALStoreServed(t *testing.T, s *Service) {
	t.Helper()
	wantJobs, wantBudget, wantMarks := walStoreWant()
	if got := normalize(s); !reflect.DeepEqual(got, wantJobs) {
		t.Fatalf("jobs differ:\ngot  %+v\nwant %+v", got, wantJobs)
	}
	if got := s.Budget(); !reflect.DeepEqual(got, wantBudget) {
		t.Fatalf("budget = %+v, want %+v", got, wantBudget)
	}
	for name, want := range wantMarks {
		if got, ok := s.StreamMarkFor(name); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("stream mark %s = %+v (%v), want %+v", name, got, ok, want)
		}
	}
}

// lsmFiles lists the files in dir that are not the fixture's.
func lsmFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var extra []string
	for _, de := range entries {
		if !slices.Contains(walStoreFiles, de.Name()) {
			extra = append(extra, de.Name())
		}
	}
	return extra
}

func TestMigrateStoreRoundTrip(t *testing.T) {
	dir := walStoreDir(t)

	// The replay is verbatim: beta is still running in the log.
	img, err := jobstore.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, _, _, err := loadLogImage(img)
	img.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !img.TailTruncated {
		t.Fatal("the fixture's torn last frame was not reported")
	}
	if st, _ := src.Status("beta"); st.State != StateRunning || st.Progress != 0.5 {
		t.Fatalf("replayed beta = %+v, want the running record with its progress", st)
	}

	res, err := MigrateStore(dir, t.Logf)
	if err != nil {
		t.Fatalf("MigrateStore: %v", err)
	}
	if res.Jobs != 4 || !res.BudgetMoved || res.Resumed {
		t.Fatalf("MigrateStore = %+v, want 4 jobs and the ledger carried", res)
	}
	if len(res.Retired) != len(walStoreFiles) {
		t.Fatalf("retired %v, want both log files", res.Retired)
	}
	// Reading the log wrote nothing to it: the torn tail is still there.
	for _, name := range walStoreFiles {
		want, _ := os.ReadFile(filepath.Join("testdata", "walstore", name))
		got, err := os.ReadFile(filepath.Join(dir, name+".retired"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s.retired differs from the fixture (%v)", name, err)
		}
	}

	// The converted store holds the ledger the way the service writes it:
	// the total alone under "b", one line per job under b/.
	_, wantBudget, _ := walStoreWant()
	total, lines := rawLedger(t, dir)
	if strings.Contains(total, "jobs") || len(lines) != len(wantBudget.Jobs) {
		t.Fatalf("converted ledger: b = %s with %d b/ lines, want the total alone and %d lines", total, len(lines), len(wantBudget.Jobs))
	}

	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot after migration: %v", err)
	}
	if got := r.Resumed(); !reflect.DeepEqual(got, []string{"beta"}) {
		t.Fatalf("Resumed = %v, want [beta]", got)
	}
	checkWALStoreServed(t, r)
	// And it must keep working as a live store.
	if _, err := r.Submit(testJob("post-migration")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Status("post-migration"); !ok {
		t.Fatal("write to migrated store lost across reopen")
	}
}

func TestMigrateStoreResumable(t *testing.T) {
	dir := walStoreDir(t)

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
	if _, err := OpenService(ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "interrupted migration") {
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
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkWALStoreServed(t, r)
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
	dir := walStoreDir(t)
	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateStore(dir, nil); !errors.Is(err, ErrAlreadyMigrated) {
		t.Fatalf("second migrate: %v, want ErrAlreadyMigrated", err)
	}

	// Another reader holds the log's lock — a concurrent migrate, or an
	// old server still writing it: migration must refuse, and must not
	// touch a partial LSM store that the holder may be writing.
	lockedDir := walStoreDir(t)
	held, err := jobstore.ReadLog(lockedDir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: lockedDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(lsmPrimaryKey("in-flight"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	before := lsmFiles(t, lockedDir)
	if _, err := MigrateStore(lockedDir, nil); !errors.Is(err, jobstore.ErrLocked) {
		t.Fatalf("migrating a locked store: %v, want ErrLocked", err)
	}
	if after := lsmFiles(t, lockedDir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused migrate changed the LSM files: %v, were %v", after, before)
	}
}

func TestMigrateStoreRollback(t *testing.T) {
	dir := walStoreDir(t)
	res, err := MigrateStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rollback: remove the LSM files and restore the retired log files —
	// the original store, byte for byte, which migrates again.
	if err := jobstore.RemoveLSMFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, retired := range res.Retired {
		if err := os.Rename(retired, strings.TrimSuffix(retired, ".retired")); err != nil {
			t.Fatal(err)
		}
	}
	if extra := lsmFiles(t, dir); len(extra) != 0 {
		t.Fatalf("files left after rollback: %v", extra)
	}
	for _, name := range walStoreFiles {
		want, _ := os.ReadFile(filepath.Join("testdata", "walstore", name))
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rolled-back %s differs from the original (%v)", name, err)
		}
	}
	if _, err := MigrateStore(dir, nil); err != nil {
		t.Fatalf("migrating the rolled-back store: %v", err)
	}
	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkWALStoreServed(t, r)
}
