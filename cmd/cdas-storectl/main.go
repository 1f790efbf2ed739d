// Command cdas-storectl manages cdas-server job-store directories.
//
//	cdas-storectl migrate -dir /var/lib/cdas/jobs
//
// migrate converts a store in the append-only log format that
// cdas-server wrote before the LSM engine (wal.dat plus snapshot.dat)
// to the LSM engine in place: it reads the log without writing to it,
// writes an equivalent LSM store — every job's primary record plus its
// state/priority/tenant index entries in atomic batches — verifies the
// two views are deep-equal, and only then retires the log files
// (renamed *.retired; renaming them back is the rollback). The
// conversion is idempotent and resumable: re-running after an
// interruption discards the partial LSM store and starts over from the
// still-authoritative log, and re-running after success is a no-op. A
// log held by another migrate, or by an old server still writing it, is
// refused.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cdas/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "cdas-storectl: usage: cdas-storectl migrate -dir DIR")
		return 1
	}
	switch args[0] {
	case "migrate":
		return runMigrate(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "cdas-storectl: unknown command %q (try: migrate)\n", args[0])
		return 1
	}
}

func runMigrate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdas-storectl migrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "job store directory (cdas-server's -store-dir)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "cdas-storectl: migrate needs -dir")
		return 1
	}
	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stdout, format+"\n", a...)
		}
	}
	res, err := jobs.MigrateStore(*dir, logf)
	if errors.Is(err, jobs.ErrAlreadyMigrated) {
		// Idempotent from the operator's view: the desired end state
		// already holds.
		logf("%s is already on the lsm engine; nothing to do", *dir)
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "cdas-storectl: %v\n", err)
		return 1
	}
	if res.Resumed {
		logf("resumed an interrupted migration from scratch")
	}
	logf("migrated %d jobs (budget ledger carried: %v)", res.Jobs, res.BudgetMoved)
	for _, f := range res.Retired {
		logf("retired %s", f)
	}
	logf("done: cdas-server boots the converted store; to roll back, remove the lsm files and rename the retired files back")
	return 0
}
