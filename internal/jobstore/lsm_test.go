package jobstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func mustApply(t *testing.T, l *LSM, ops ...Op) {
	t.Helper()
	if err := l.Apply(ops); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func mustGet(t *testing.T, l *LSM, key, want string) {
	t.Helper()
	v, ok, err := l.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing, want %q", key, want)
	}
	if string(v) != want {
		t.Fatalf("Get(%q) = %q, want %q", key, v, want)
	}
}

func mustMiss(t *testing.T, l *LSM, key string) {
	t.Helper()
	_, ok, err := l.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if ok {
		t.Fatalf("Get(%q): present, want miss", key)
	}
}

// dump returns the store's full live contents in scan order.
func dump(t *testing.T, l *LSM) map[string]string {
	t.Helper()
	out := map[string]string{}
	prev := ""
	first := true
	err := l.Scan("", "", func(k string, v []byte) bool {
		if !first && k <= prev {
			t.Fatalf("Scan out of order: %q after %q", k, prev)
		}
		first = false
		prev = k
		out[k] = string(v)
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func TestLSMBasic(t *testing.T) {
	l, err := OpenLSM(LSMConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustMiss(t, l, "a")
	if err := l.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, l, "a", "1")
	if err := l.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, l, "a", "2")
	if err := l.Delete("a"); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, l, "a")
	if err := l.Apply(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.Apply([]Op{{Key: ""}}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestLSMReopenDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "x", Value: []byte("42")}, Op{Key: "y", Value: []byte("7")})
	mustApply(t, l, Op{Key: "y", Delete: true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "x", "42")
	mustMiss(t, r, "y")
	bs := r.BootStats()
	if bs.Runs != 0 || bs.TailRecords != 2 {
		t.Fatalf("BootStats = %+v, want 0 runs / 2 tail records", bs)
	}
}

func TestLSMCheckpointBoot(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustApply(t, l, Op{Key: fmt.Sprintf("k%03d", i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes live in the WAL tail.
	mustApply(t, l, Op{Key: "k000", Value: []byte("rewritten")})
	mustApply(t, l, Op{Key: "k007", Delete: true})
	l.Close()

	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bs := r.BootStats()
	if bs.Runs != 1 || bs.RunRecords != 50 || bs.TailRecords != 2 || bs.TailTruncated {
		t.Fatalf("BootStats = %+v, want 1 run / 50 records / 2 tail", bs)
	}
	mustGet(t, r, "k000", "rewritten")
	mustMiss(t, r, "k007")
	mustGet(t, r, "k049", "v49")
	if got := dump(t, r); len(got) != 49 {
		t.Fatalf("recovered %d keys, want 49", len(got))
	}
}

func TestLSMAutoFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir, MemtableBytes: 64, MaxRuns: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i%37)
		v := fmt.Sprintf("val-%d", i)
		mustApply(t, l, Op{Key: k, Value: []byte(v)})
		want[k] = v
		if i%11 == 0 {
			mustApply(t, l, Op{Key: k, Delete: true})
			delete(want, k)
		}
	}
	if runs := l.Runs(); runs > 2+1 {
		t.Fatalf("compaction did not bound the stack: %d runs", runs)
	}
	got := dump(t, l)
	if len(got) != len(want) {
		t.Fatalf("live set has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
	l.Close()
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := dump(t, r)
	if len(after) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(after), len(want))
	}
}

func TestLSMTombstoneSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir, MaxRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustApply(t, l, Op{Key: "doomed", Value: []byte("alive")})
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "doomed", Delete: true})
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two runs: older holds the value, newer the tombstone.
	mustMiss(t, l, "doomed")
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Runs() != 1 {
		t.Fatalf("Runs() = %d after compact, want 1", l.Runs())
	}
	mustMiss(t, l, "doomed")
	// The bottom level dropped the tombstone entirely.
	found := false
	for _, r := range l.runs {
		if _, ok, _ := r.get("doomed"); ok {
			found = true
		}
	}
	if found {
		t.Fatal("tombstone survived bottom-level compaction")
	}
}

func TestLSMScanRange(t *testing.T) {
	l, err := OpenLSM(LSMConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		mustApply(t, l, Op{Key: k, Value: []byte(k)})
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "bb", Value: []byte("bb")}) // memtable overlay
	var got []string
	if err := l.Scan("b", "d", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "bb", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan[b,d) = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	l.Scan("", "", func(string, []byte) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early-stopped scan visited %d keys, want 2", n)
	}
}

func TestLSMSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := OpenLSM(LSMConfig{Dir: dir}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: %v, want ErrLocked", err)
	}
}

func TestLSMTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "safe", Value: []byte("yes")})
	l.Close()
	f, err := os.OpenFile(filepath.Join(dir, segmentFileName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	full := frame(99, appendEntry(nil, kvEntry{key: "torn", val: []byte("no")}))
	f.Write(full[:len(full)-3])
	f.Close()
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.BootStats().TailTruncated {
		t.Fatal("torn tail not reported")
	}
	mustGet(t, r, "safe", "yes")
	mustMiss(t, r, "torn")
}

// TestLSMSharesDirWithLog: the LSM and the append-only log use disjoint
// file names, so an open that ignored the log would come up beside its
// data. OpenLSM refuses a directory holding the log, changes none of the
// store's files, and opens the store as it was once the log is gone.
func TestLSMSharesDirWithLog(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, l, Op{Key: "kept", Value: []byte("yes")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "wal.dat")
	if err := os.WriteFile(log, []byte("append-only log record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLSM(LSMConfig{Dir: dir}); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("open beside a log: %v, want ErrRetiredFormat", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("refused open left %d files, want %d", len(after), len(before)+1)
	}
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLSM(LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustGet(t, r, "kept", "yes")
}

// TestRunSortedIterationProperty pins the primary-iteration invariant:
// for random entry sets, a written run iterates every entry back in
// strictly ascending key order from any starting bound.
func TestRunSortedIterationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(300)
		seen := map[string]bool{}
		var entries []kvEntry
		for len(entries) < n {
			k := fmt.Sprintf("k%04d", rng.Intn(5000))
			if seen[k] {
				continue
			}
			seen[k] = true
			e := kvEntry{key: k}
			if rng.Intn(5) == 0 {
				e.del = true
			} else {
				e.val = []byte(fmt.Sprintf("v%d", rng.Int63()))
			}
			entries = append(entries, e)
		}
		sortEntries(entries)
		path := filepath.Join(t.TempDir(), "prop.run")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeRun(f, entries, 1+rng.Intn(256), nil); err != nil {
			t.Fatal(err)
		}
		f.Close()
		r, err := openRun(path)
		if err != nil {
			t.Fatal(err)
		}
		lo := ""
		if rng.Intn(2) == 0 {
			lo = entries[rng.Intn(len(entries))].key
		}
		it := r.iterator(lo)
		var got []kvEntry
		for e, ok := it.next(); ok; e, ok = it.next() {
			got = append(got, e)
		}
		if it.err != nil {
			t.Fatal(it.err)
		}
		var want []kvEntry
		for _, e := range entries {
			if e.key >= lo {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: iterator yielded %d entries from %q, want %d", trial, len(got), lo, len(want))
		}
		for i := range want {
			if got[i].key != want[i].key || got[i].del != want[i].del || !bytes.Equal(got[i].val, want[i].val) {
				t.Fatalf("trial %d: entry %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		r.close()
	}
}

// TestBloomNoFalseNegatives pins the filter's one hard guarantee:
// every added key answers mayContain true, for random key sets of
// random sizes.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		b := newBloom(n)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d-%d", trial, rng.Int63())
			b.add(keys[i])
		}
		for _, k := range keys {
			if !b.mayContain(k) {
				t.Fatalf("trial %d: false negative for %q", trial, k)
			}
		}
	}
	// And the false-positive rate stays plausible for the 10-bit/7-probe
	// sizing (bounded loosely: this is a smoke check, not a proof).
	b := newBloom(10000)
	for i := 0; i < 10000; i++ {
		b.add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain(fmt.Sprintf("stranger-%d", i)) {
			fp++
		}
	}
	if fp > 500 {
		t.Fatalf("false positive rate %.2f%% is far above the ~1%% design point", float64(fp)/100)
	}
}

func sortEntries(entries []kvEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j-1].key > entries[j].key; j-- {
			entries[j-1], entries[j] = entries[j], entries[j-1]
		}
	}
}
