package main

// In-process CLI tests: copy the committed append-only log fixture,
// drive the migrate subcommand via run(), and boot the result.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdas/internal/jobs"
)

// walStoreDir copies the job package's append-only log fixture (see
// internal/jobs/gen_walstore.go) into a fresh directory.
func walStoreDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"wal.dat", "snapshot.dat"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "jobs", "testdata", "walstore", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStorectlMigrate(t *testing.T) {
	dir := walStoreDir(t)

	// The server refuses the unconverted store and names the tool.
	if _, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "cdas-storectl migrate") {
		t.Fatalf("boot before migration: err = %v, want the migration hint", err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"migrate", "-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("migrate exited %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "migrated 4 jobs (budget ledger carried: true)") {
		t.Fatalf("output missing job count:\n%s", out.String())
	}

	r, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot migrated store: %v", err)
	}
	defer r.Close()
	st, ok := r.Status("alpha")
	if !ok || st.State != jobs.StateDone || st.Cost != 2.5 || st.Job.Tenant != "acme" {
		t.Fatalf("alpha after migration = %+v/%v", st, ok)
	}
	if got := r.Resumed(); !reflect.DeepEqual(got, []string{"beta"}) {
		t.Fatalf("Resumed = %v, want [beta]", got)
	}
	want := jobs.BudgetState{GlobalSpent: 3.25, Jobs: map[string]float64{"alpha": 2.5, "beta": 0.5, "gamma": 0.25}}
	if b := r.Budget(); !reflect.DeepEqual(b, want) {
		t.Fatalf("budget after migration = %+v, want %+v", b, want)
	}
	if mark, ok := r.StreamMarkFor("feed"); !ok || mark.Window != 2 || mark.Seen != 36 {
		t.Fatalf("feed mark after migration = %+v/%v", mark, ok)
	}

	// Second run: idempotent success.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"migrate", "-dir", dir, "-quiet"}, &out, &errOut); code != 0 {
		t.Fatalf("re-run exited %d: %s", code, errOut.String())
	}
}

func TestStorectlUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code == 0 {
		t.Fatal("no args: want nonzero exit")
	}
	if code := run([]string{"defrag"}, &out, &errOut); code == 0 {
		t.Fatal("unknown command: want nonzero exit")
	}
	if code := run([]string{"migrate"}, &out, &errOut); code == 0 {
		t.Fatal("migrate without -dir: want nonzero exit")
	}
	if code := run([]string{"migrate", "-dir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatal("migrate of empty dir: want nonzero exit")
	}
}
