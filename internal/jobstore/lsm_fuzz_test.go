package jobstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validRunBytes builds a well-formed run file's bytes for corpus
// seeding.
func validRunBytes(t testing.TB, entries []kvEntry, blockSize int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.run")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeRun(f, entries, blockSize, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzRunDecode feeds arbitrary bytes to the sorted-run reader: open
// must never panic, a successful open must iterate without panicking,
// and every failure must be a clean ErrCorruptRun (or an IO error) —
// never a silently wrong result. Torn tails (truncations of a valid
// run) must always be rejected: runs are installed atomically, so a
// short file is corruption, not a crash artifact, and no record — in
// particular no acked delete's tombstone — may be silently dropped or
// resurrected by guessing.
func FuzzRunDecode(f *testing.F) {
	seedEntries := []kvEntry{
		{key: "alpha", val: []byte("1")},
		{key: "beta", del: true},
		{key: "gamma", val: bytes.Repeat([]byte("g"), 100)},
	}
	valid := validRunBytes(f, seedEntries, 64)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])            // torn footer
	f.Add(valid[:len(valid)/2])            // torn body
	f.Add([]byte{})                        // empty
	f.Add([]byte("CDASRUN1"))              // magic only
	f.Add(bytes.Repeat([]byte{0xff}, 256)) // junk
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0x40 // corrupt a data block byte
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.run")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := openRun(path)
		if err != nil {
			return // rejected cleanly; no panic is the property
		}
		defer r.close()
		// A run that opens must iterate deterministically: two passes
		// agree entry-for-entry, errors included.
		collect := func() ([]kvEntry, error) {
			it := r.iterator("")
			var out []kvEntry
			for e, ok := it.next(); ok; e, ok = it.next() {
				out = append(out, e)
			}
			return out, it.err
		}
		first, err1 := collect()
		second, err2 := collect()
		if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(first, second) {
			t.Fatalf("non-deterministic iteration: %d/%v vs %d/%v", len(first), err1, len(second), err2)
		}
		// Point reads agree with the iterator on every key it yields.
		for _, e := range first {
			got, ok, err := r.get(e.key)
			if err != nil || !ok || got.del != e.del || !bytes.Equal(got.val, e.val) {
				t.Fatalf("get(%q) = %+v/%v/%v disagrees with iterator entry %+v", e.key, got, ok, err, e)
			}
		}
	})
}

// FuzzLSMRecover treats arbitrary bytes as the WAL tail and pins
// recovery as a fixed point across the checkpoint path: recover, read,
// write, checkpoint, and recover again — the second recovery must see
// exactly the first recovery's state plus the new write, with the
// checkpointed portion served from the run stack instead of the WAL.
func FuzzLSMRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal"))
	f.Add(frame(1, appendEntry(nil, kvEntry{key: "a", val: []byte("1")})))
	batch := appendEntry(nil, kvEntry{key: "a", val: []byte("2")})
	batch = appendEntry(batch, kvEntry{key: "b", del: true})
	f.Add(append(frame(1, appendEntry(nil, kvEntry{key: "b", val: []byte("x")})), frame(2, batch)...))
	torn := frame(3, appendEntry(nil, kvEntry{key: "t", val: []byte("torn")}))
	f.Add(append(frame(1, appendEntry(nil, kvEntry{key: "keep", val: []byte("me")})), torn[:len(torn)-2]...))
	f.Add(bytes.Repeat([]byte{0xee}, headerSize*2))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), wal, 0o644); err != nil {
			t.Skip()
		}
		l, err := OpenLSM(LSMConfig{Dir: dir})
		if err != nil {
			// Arbitrary bytes can hit the structured-corruption path (a
			// CRC-valid frame with undecodable ops); rejecting loudly is
			// allowed, guessing is not.
			if !errors.Is(err, ErrCorruptRun) && !errors.Is(err, ErrLocked) {
				t.Fatalf("recovery error is not a corruption report: %v", err)
			}
			return
		}
		first := map[string]string{}
		if err := l.Scan("", "", func(k string, v []byte) bool {
			first[k] = string(v)
			return true
		}); err != nil {
			t.Fatalf("scan after recovery: %v", err)
		}
		if err := l.Put("post-recovery", []byte("pr")); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after recovery: %v", err)
		}
		l.Close()

		r, err := OpenLSM(LSMConfig{Dir: dir})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		defer r.Close()
		bs := r.BootStats()
		if bs.TailRecords != 0 {
			t.Fatalf("checkpoint left %d WAL tail records", bs.TailRecords)
		}
		second := map[string]string{}
		if err := r.Scan("", "", func(k string, v []byte) bool {
			second[k] = string(v)
			return true
		}); err != nil {
			t.Fatalf("scan after second recovery: %v", err)
		}
		want := map[string]string{"post-recovery": "pr"}
		for k, v := range first {
			want[k] = v
		}
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("recovery is not a fixed point:\nfirst + write: %v\nsecond:        %v", want, second)
		}
	})
}

// TestGenerateFuzzCorpus writes the committed seed corpora under
// testdata/fuzz/ when JOBSTORE_WRITE_CORPUS=1 is set. The files are
// checked in; rerun with the env var after changing a format to
// refresh them.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("JOBSTORE_WRITE_CORPUS") == "" {
		t.Skip("set JOBSTORE_WRITE_CORPUS=1 to regenerate the committed corpora")
	}
	write := func(fuzzName, seedName string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	valid := validRunBytes(t, []kvEntry{
		{key: "alpha", val: []byte("1")},
		{key: "beta", del: true},
		{key: "gamma", val: bytes.Repeat([]byte("g"), 100)},
	}, 64)
	write("FuzzRunDecode", "seed-valid-run", valid)
	write("FuzzRunDecode", "seed-torn-footer", valid[:len(valid)-7])
	write("FuzzRunDecode", "seed-torn-body", valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0x40
	write("FuzzRunDecode", "seed-bitflip", flipped)

	batch := appendEntry(nil, kvEntry{key: "a", val: []byte("2")})
	batch = appendEntry(batch, kvEntry{key: "b", del: true})
	wal := append(frame(1, appendEntry(nil, kvEntry{key: "b", val: []byte("x")})), frame(2, batch)...)
	write("FuzzLSMRecover", "seed-batch-wal", wal)
	torn := frame(3, appendEntry(nil, kvEntry{key: "t", val: []byte("torn")}))
	write("FuzzLSMRecover", "seed-torn-tail", append(append([]byte(nil), wal...), torn[:len(torn)-2]...))

	write("FuzzReplay", "seed-two-records", append(frame(1, []byte("good")), frame(2, []byte("also good"))...))
	write("FuzzReplay", "seed-torn-tail", append(frame(1, []byte("good")), 0xde, 0xad, 0xbe))
}
