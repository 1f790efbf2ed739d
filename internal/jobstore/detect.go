// Engine detection: which store formats live in a directory. The job
// service uses this to refuse a boot that would silently shadow an
// existing store — the LSM's file set is disjoint from the append-only
// log's, so opening the LSM over a log directory "works" but starts
// empty, which would look like data loss. cdas-storectl migrate
// converts such a directory instead.
package jobstore

import (
	"os"
	"path/filepath"
	"strings"
)

// DetectEngines reports which formats have persisted state in dir: wal
// for the append-only log ReadLog reads (wal.dat / snapshot.dat), lsm
// for the LSM store (MANIFEST / WAL segments). A missing directory has
// neither.
func DetectEngines(dir string) (wal, lsm bool) {
	if fi, err := os.Stat(filepath.Join(dir, walName)); err == nil && fi.Size() > 0 {
		wal = true
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		wal = true
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		lsm = true
	}
	if fi, err := os.Stat(filepath.Join(dir, lsmWALName)); err == nil && fi.Size() > 0 {
		lsm = true
	}
	if !lsm {
		entries, err := os.ReadDir(dir)
		if err == nil {
			for _, de := range entries {
				if _, ok := parseSegmentName(de.Name()); !ok {
					continue
				}
				if fi, err := de.Info(); err == nil && fi.Size() > 0 {
					lsm = true
					break
				}
			}
		}
	}
	return wal, lsm
}

// RetireLogFiles renames the append-only log's files out of its file
// set (wal.dat → wal.dat.retired, likewise the snapshot), so
// DetectEngines stops reporting a log store while the bytes stay on
// disk for rollback. Renaming back restores the store unchanged. The
// returned list names the retired files.
func RetireLogFiles(dir string) ([]string, error) {
	var retired []string
	for _, name := range []string{walName, snapshotName} {
		src := filepath.Join(dir, name)
		if _, err := os.Stat(src); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return retired, err
		}
		dst := src + ".retired"
		if err := os.Rename(src, dst); err != nil {
			return retired, err
		}
		retired = append(retired, dst)
	}
	return retired, nil
}

// RemoveLSMFiles deletes every LSM-engine file in dir (manifest, runs,
// WAL segments, lock and temp files), leaving the append-only log's
// files alone. The migrator uses it to restart cleanly after an
// interrupted conversion, while the log is still the authority.
func RemoveLSMFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, de := range entries {
		name := de.Name()
		isRun := strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".run")
		_, isSeg := parseSegmentName(name)
		switch {
		case isRun, isSeg:
		case name == manifestName, name == manifestTmpName:
		case name == runTmpName, name == lsmWALName, name == lsmLockName:
		default:
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
