package jobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeWAL writes recs as WAL frames numbered from seq 1 and returns
// the file's bytes.
func writeWAL(t *testing.T, dir string, recs ...string) []byte {
	t.Helper()
	var data []byte
	for i, r := range recs {
		data = appendFrame(data, uint64(i+1), []byte(r))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// writeSnapshot installs payload as the snapshot covering records up to
// and including seq.
func writeSnapshot(t *testing.T, dir string, seq uint64, payload string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), frame(seq, []byte(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, dir string) *LogImage {
	t.Helper()
	img, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog(%s): %v", dir, err)
	}
	t.Cleanup(func() { img.Close() })
	return img
}

func wantEntries(t *testing.T, img *LogImage, want ...string) {
	t.Helper()
	if len(img.Entries) != len(want) {
		t.Fatalf("read %d entries, want %d: %q vs %q", len(img.Entries), len(want), img.Entries, want)
	}
	for i := range want {
		if string(img.Entries[i]) != want[i] {
			t.Errorf("entry %d = %q, want %q", i, img.Entries[i], want[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, "one", "two", "three")
	img := mustRead(t, dir)
	wantEntries(t, img, "one", "two", "three")
	if img.TailTruncated {
		t.Error("clean WAL reported a truncated tail")
	}
	if img.Snapshot != nil {
		t.Errorf("Snapshot = %q with no snapshot file", img.Snapshot)
	}
}

// TestTruncatedTail: a crash mid-append cut the last frame short. The
// reader keeps every record before it, drops only the torn tail, and
// leaves the file as it found it.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir, "committed-1", "committed-2", "torn")
	path := filepath.Join(dir, walName)
	for cut := 1; cut < headerSize+len("torn"); cut += 3 {
		torn := data[:len(data)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		img := mustRead(t, dir)
		wantEntries(t, img, "committed-1", "committed-2")
		if !img.TailTruncated {
			t.Errorf("cut=%d: torn tail not reported", cut)
		}
		img.Close()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, torn) {
			t.Fatalf("cut=%d: the read changed the WAL (%d bytes, was %d; %v)", cut, len(after), len(torn), err)
		}
	}
}

// TestCorruptedTail flips bytes in the final record: the checksum must
// catch it and the read must keep all earlier committed records.
func TestCorruptedTail(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir, "keep-1", "keep-2", "garbled")
	path := filepath.Join(dir, walName)
	lastFrame := len(data) - headerSize - len("garbled")
	for _, off := range []int{lastFrame, lastFrame + 5, lastFrame + headerSize, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		img := mustRead(t, dir)
		wantEntries(t, img, "keep-1", "keep-2")
		if !img.TailTruncated {
			t.Errorf("offset %d: corruption not reported", off)
		}
		img.Close()
	}
}

// TestCorruptionMidLogDropsSuffix: corruption in the middle of the WAL
// ends the committed prefix there; later (unreachable) records are
// dropped rather than mis-parsed.
func TestCorruptionMidLogDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir, "first", "second", "third")
	// Flip a byte inside the second record's payload.
	data[headerSize+len("first")+headerSize] ^= 0x55
	if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	img := mustRead(t, dir)
	wantEntries(t, img, "first")
	if !img.TailTruncated {
		t.Error("mid-log corruption not reported")
	}
}

// TestSnapshotCompactsWAL reads the shape compaction left: a snapshot
// covering the first records and a WAL holding only the ones after it.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, 2, "state-after-b")
	if err := os.WriteFile(filepath.Join(dir, walName), frame(3, []byte("c")), 0o644); err != nil {
		t.Fatal(err)
	}
	img := mustRead(t, dir)
	if string(img.Snapshot) != "state-after-b" {
		t.Errorf("Snapshot = %q, want state-after-b", img.Snapshot)
	}
	wantEntries(t, img, "c")
}

// TestSnapshotCrashWindow: a crash after the snapshot rename but before
// the WAL truncation left the covered records in the WAL. They are at
// or below the snapshot watermark and must not be read twice.
func TestSnapshotCrashWindow(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, "a", "b")
	writeSnapshot(t, dir, 2, "covers-a-b")
	img := mustRead(t, dir)
	if string(img.Snapshot) != "covers-a-b" {
		t.Fatalf("Snapshot = %q, want covers-a-b", img.Snapshot)
	}
	wantEntries(t, img) // nothing replays: both records are covered
	img.Close()

	// Records appended after the snapshot are read past the watermark.
	wal := append(append(frame(1, []byte("a")), frame(2, []byte("b"))...), frame(3, []byte("c"))...)
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	wantEntries(t, mustRead(t, dir), "c")
}

func TestCorruptSnapshotIsLoud(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, 1, "good")
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Twice: the failed read released the lock, so the second one fails
	// the same way instead of with ErrLocked.
	for i := 0; i < 2; i++ {
		if _, err := ReadLog(dir); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("ReadLog on corrupt snapshot: err = %v, want ErrCorruptSnapshot", err)
		}
	}
}

func TestEmptyPayloadsAndBinaryRecords(t *testing.T) {
	dir := t.TempDir()
	bin := bytes.Repeat([]byte{0x00, 0xff, 0x13}, 100)
	writeWAL(t, dir, "", string(bin))
	got := mustRead(t, dir).Entries
	if len(got) != 2 || len(got[0]) != 0 || !bytes.Equal(got[1], bin) {
		t.Errorf("binary round trip failed: %q", got)
	}
}

// TestDoubleOpenLocked: while one reader holds the store, a second one
// fails fast — two migrations of one directory exclude each other.
func TestDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, "a")
	img := mustRead(t, dir)
	if _, err := ReadLog(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second ReadLog err = %v, want ErrLocked", err)
	}
	// Releasing the first image frees the store.
	img.Close()
	mustRead(t, dir)
}
