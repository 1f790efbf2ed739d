package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdas/internal/jobstore"
)

// storeValues returns every key and value in the store at dir, read
// through the LSM itself.
func storeValues(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	out := map[string][]byte{}
	if err := l.Scan("", "", func(k string, v []byte) bool {
		out[k] = bytes.Clone(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// putValues overwrites values in the store at dir.
func putValues(t *testing.T, dir string, values map[string][]byte) {
	t.Helper()
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range values {
		if err := l.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirFiles returns every file in dir with its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, de := range entries {
		if out[de.Name()], err = os.ReadFile(filepath.Join(dir, de.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// writeCurrentStore writes a store in the current layout: jobs in
// several states, a charged ledger and a stream mark. With no
// checkpoints every frame stays in the first WAL segment.
func writeCurrentStore(t *testing.T, dir string) {
	t.Helper()
	s := openTestService(t, dir, func(c *ServiceConfig) { c.SnapshotEvery = -1 })
	for _, j := range []Job{testJob("a"), tenantJob("b", "acme", -3), continuousTestJob("feed")} {
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Claim(); !ok {
		t.Fatal("claim failed")
	}
	if err := s.ChargeBudget("a", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeBudget("b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitStreamMark("feed", StreamMark{Window: 1, Spent: 0.2, Seen: 24, Matched: 18}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenServiceRefusesRetiredFormats: a directory or record in a
// layout this code no longer reads fails the boot with
// jobstore.ErrRetiredFormat, in an error naming the file or key and the
// last commit that reads it. Nothing is converted: a refused directory
// gains no file and no file's bytes change, and a refused store reads
// back key for key as it was.
func TestOpenServiceRefusesRetiredFormats(t *testing.T) {
	cases := []struct {
		name string
		// build writes the retired layout into dir and returns what the
		// error must name.
		build func(t *testing.T, dir string) string
		// file reports a retired file, refused before the store opens;
		// otherwise a retired record, refused while it boots.
		file bool
	}{
		{"wal.dat", func(t *testing.T, dir string) string {
			// An append-only log store: its contents do not matter, the
			// file's presence is refused.
			if err := os.WriteFile(filepath.Join(dir, "wal.dat"), []byte(`{"op":"submit"}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(dir, "wal.dat")
		}, true},
		{"snapshot.dat", func(t *testing.T, dir string) string {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte(`{"jobs":[]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(dir, "snapshot.dat")
		}, true},
		{"lsm.wal", func(t *testing.T, dir string) string {
			// A store written before WAL segments: its one WAL file is
			// what the first segment now is.
			writeCurrentStore(t, dir)
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("WAL segments %v (%v), want one", segs, err)
			}
			if err := os.Rename(segs[0], filepath.Join(dir, "lsm.wal")); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(dir, "lsm.wal")
		}, true},
		{"json-record", func(t *testing.T, dir string) string {
			writeCurrentStore(t, dir)
			key := lsmPrimaryKey("b")
			var ws walStatus
			if err := decodeRecord(storeValues(t, dir)[key], &ws); err != nil {
				t.Fatal(err)
			}
			legacy, err := json.Marshal(ws)
			if err != nil {
				t.Fatal(err)
			}
			putValues(t, dir, map[string][]byte{key: legacy})
			return `"` + key + `"`
		}, false},
		{"whole-ledger", func(t *testing.T, dir string) string {
			writeCurrentStore(t, dir)
			whole, err := json.Marshal(BudgetState{GlobalSpent: 0.75, Jobs: map[string]float64{"a": 0.25, "b": 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			putValues(t, dir, map[string][]byte{lsmBudgetKey: whole})
			return `"` + lsmBudgetKey + `"`
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			named := c.build(t, dir)
			files := dirFiles(t, dir)
			var values map[string][]byte
			if !c.file {
				values = storeValues(t, dir)
			}

			_, err := OpenService(ServiceConfig{Dir: dir})
			if !errors.Is(err, jobstore.ErrRetiredFormat) {
				t.Fatalf("OpenService: err = %v, want ErrRetiredFormat", err)
			}
			t.Log(err)
			for _, want := range []string{named, "last read by commit fef6937"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
			if c.file {
				if got := dirFiles(t, dir); !reflect.DeepEqual(got, files) {
					t.Fatalf("a refused open changed the directory: %d files, were %d", len(got), len(files))
				}
				return
			}
			if got := storeValues(t, dir); !reflect.DeepEqual(got, values) {
				t.Fatal("a refused boot changed the store's values")
			}
		})
	}
}

// TestOpenServiceEngineMismatch: an append-only log file beside a
// current store is refused, not ignored. The boot fails naming the log
// file, leaves every file as it was, and the store boots with its jobs
// once the log file is moved away.
func TestOpenServiceEngineMismatch(t *testing.T) {
	dir := t.TempDir()
	writeCurrentStore(t, dir)
	log := filepath.Join(dir, "wal.dat")
	if err := os.WriteFile(log, []byte(`{"op":"submit"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	files := dirFiles(t, dir)
	_, err := OpenService(ServiceConfig{Dir: dir})
	if !errors.Is(err, jobstore.ErrRetiredFormat) || !strings.Contains(err.Error(), log) {
		t.Fatalf("open beside a log store: err = %v, want ErrRetiredFormat naming %s", err, log)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatal("a refused open changed the directory")
	}
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	s, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"a", "b", "feed"} {
		if _, ok := s.Status(name); !ok {
			t.Errorf("job %q lost after the log file was moved away", name)
		}
	}
}
