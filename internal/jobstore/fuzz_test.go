package jobstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to ReadLog's WAL scan: it must never
// panic or error on junk (junk is a torn tail, not an IO failure), never
// write the file, and read the same records every time. A clean log
// stays clean with one more frame behind it, and a snapshot watermark
// hides exactly the frames at or below it.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal at all"))
	f.Add(frame(1, []byte("good record")))
	f.Add(append(frame(1, []byte("good")), frame(2, []byte("also good"))...))
	f.Add(append(frame(1, []byte("good")), 0xde, 0xad, 0xbe)) // torn tail
	f.Add(frame(0, nil))
	f.Add(bytes.Repeat([]byte{0xff}, headerSize*3))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Skip()
		}
		read := func() *LogImage {
			t.Helper()
			img, err := ReadLog(dir)
			if err != nil {
				t.Fatalf("ReadLog on arbitrary WAL bytes errored: %v", err)
			}
			img.Close()
			return img
		}
		first := read()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, wal) {
			t.Fatal("ReadLog changed the WAL file")
		}
		again := read()
		if first.TailTruncated != again.TailTruncated || len(again.Entries) != len(first.Entries) {
			t.Fatalf("two reads differ: %d entries (torn %v) vs %d (torn %v)",
				len(first.Entries), first.TailTruncated, len(again.Entries), again.TailTruncated)
		}
		for i := range first.Entries {
			if !bytes.Equal(again.Entries[i], first.Entries[i]) {
				t.Fatalf("entry %d changed across reads: %q vs %q", i, again.Entries[i], first.Entries[i])
			}
		}

		if !first.TailTruncated {
			// A clean log is a committed prefix: one more frame behind
			// it is one more entry.
			grown := append(append([]byte(nil), wal...), frame(math.MaxUint64, []byte("appended"))...)
			if err := os.WriteFile(path, grown, 0o644); err != nil {
				t.Fatal(err)
			}
			img := read()
			if img.TailTruncated || len(img.Entries) != len(first.Entries)+1 || string(img.Entries[len(first.Entries)]) != "appended" {
				t.Fatalf("clean log plus one frame read as %d entries (torn %v), want %d", len(img.Entries), img.TailTruncated, len(first.Entries)+1)
			}
			if err := os.WriteFile(path, wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// A snapshot at the highest watermark covers every frame.
		if err := os.WriteFile(filepath.Join(dir, snapshotName), frame(math.MaxUint64, []byte("state")), 0o644); err != nil {
			t.Fatal(err)
		}
		img := read()
		if string(img.Snapshot) != "state" || len(img.Entries) != 0 || img.TailTruncated != first.TailTruncated {
			t.Fatalf("snapshot over everything read as %q with %d entries (torn %v)", img.Snapshot, len(img.Entries), img.TailTruncated)
		}
	})
}
