package jobs

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"cdas/internal/jobstore"
)

// benchStoreJobs sizes the populated store behind the boot and listing
// benchmarks. 100k records is the "busy server restarted after a long
// run" scenario the recovery bound is about; the end-to-end boot figure
// is restart_ms in benchmark/.
const benchStoreJobs = 100_000

// benchStatus builds the i-th fixture record. The states cycle through
// Pending/Done/Parked only: a Running record would make every boot
// requeue it (a store write), and the boot benchmark needs reopening
// the same directory to be read-only.
func benchStatus(i int) walStatus {
	states := []State{StatePending, StateDone, StateParked, StateDone}
	return walStatus{
		Job: Job{
			Name:     fmt.Sprintf("job-%06d", i),
			Kind:     KindTSA,
			Priority: i % 7,
			Tenant:   fmt.Sprintf("tenant-%d", i%5),
			Query: Query{
				Keywords:         []string{"iPhone4S", "camera"},
				RequiredAccuracy: 0.9,
				Domain:           []string{"positive", "neutral", "negative"},
				Window:           24 * time.Hour,
			},
		},
		State:    states[i%len(states)],
		Attempts: 1,
		Progress: float64(i%10) / 10,
		Cost:     float64(i%13) * 0.25,
		Seq:      uint64(i + 1),
	}
}

// buildBenchStore populates dir with benchStoreJobs records through
// the same on-disk encoding the service commits — unsynced, since the
// benchmark measures boot, not the build. A large memtable keeps the
// build to a couple of checkpoints; the final Checkpoint leaves the boot
// a run set plus an empty WAL tail — the recovery shape the engine
// promises.
func buildBenchStore(b *testing.B, dir string) {
	b.Helper()
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir, NoSync: true, MemtableBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var batch []jobstore.Op
	for i := 0; i < benchStoreJobs; i++ {
		ops, err := lsmBatch(walEvent{Op: "submit", Status: benchStatus(i)}, "")
		if err != nil {
			b.Fatal(err)
		}
		batch = append(batch, ops...)
		if len(batch) >= 4096 {
			if err := lsm.Apply(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := lsm.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := lsm.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := lsm.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreBoot measures cold-start recovery of a 100k-job store:
// checkpoint plus WAL tail. Reports boot_ms, the per-boot wall time the
// bench gate bounds.
func BenchmarkStoreBoot(b *testing.B) {
	dir := b.TempDir()
	buildBenchStore(b, dir)
	// One throwaway boot verifies the fixture before the clock runs.
	svc, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(svc.Statuses()); n != benchStoreJobs {
		b.Fatalf("fixture store has %d jobs, want %d", n, benchStoreJobs)
	}
	svc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "boot_ms")
}

// BenchmarkJobsListP99 measures one GET /v1/jobs page (limit 100) over
// a 100k-job table, walking the primary index page by page. Reports
// list_p99_us, the tail latency the bench gate bounds — the index
// range-read must stay O(page), not O(table).
func BenchmarkJobsListP99(b *testing.B) {
	svc, err := OpenService(ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchStoreJobs; i++ {
		svc.m.restore(fromWal(benchStatus(i)))
	}
	// Each iteration reads a fixed batch of pages, so even a -benchtime
	// 3x baseline run collects a few hundred samples for the percentile.
	const (
		pageSize   = 100
		pagesPerOp = 256
	)
	durs := make([]time.Duration, 0, b.N*pagesPerOp)
	after := ""
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pagesPerOp; p++ {
			start := time.Now()
			page, more := svc.StatusesPage(after, pageSize, "", "")
			durs = append(durs, time.Since(start))
			if !more || len(page) == 0 {
				after = ""
			} else {
				after = page[len(page)-1].Job.Name
			}
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p99 := durs[len(durs)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds())/1e3, "list_p99_us")
}

// BenchmarkChargeBudget measures one durable charge (fsync on) against ledgers of two sizes. The two must read alike: a charge
// commits the job's line and the total, never the ledger.
func BenchmarkChargeBudget(b *testing.B) {
	for _, jobs := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			svc, _ := openWithLedger(b, jobs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.ChargeBudget(fmt.Sprintf("job-%06d", i%jobs), 0.25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
