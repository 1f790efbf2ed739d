//go:build ignore

// gen_walstore writes testdata/walstore: a job store in the append-only
// log format that stores were kept in before the LSM engine, pinned as
// committed bytes so the migration tests read what old servers left on
// disk. Run from this directory with `go run gen_walstore.go`.
//
// Records are spelled as the old writer's json.Marshal spelled them and
// framed as [len u32][seq u64][crc32 of seq+payload u32][payload]: a
// snapshot at seq 8, then a WAL tail opening with a stale frame the
// snapshot covers (seq 4) and holding lifecycle updates, an old
// whole-ledger "budget" event, a "charge" written twice under one seq, a
// submit and a cancel, two stream marks and a charge torn in half.
package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strconv"
)

const dir = "testdata/walstore"

func main() {
	alpha, beta := job("alpha", "acme", 1), job("beta", "", 0)
	gamma, delta := job("gamma", "acme", -2), job("delta", "globex", 2)
	zero := `{"Name":"","Kind":"","Query":{"Keywords":null,"RequiredAccuracy":0,"Domain":null,"Start":"0001-01-01T00:00:00Z","Window":0},"Tenant":"","Priority":0,"Budget":0,"Aggregator":""}`
	none := status(zero, "", 0, 0, 0, "", 0)

	snapshot := fmt.Sprintf(`{"jobs":[%s,%s,%s],"budget":{"global_spent":2.5,"jobs":{"alpha":2.5}},"streams":[{"job":"feed","mark":{"window":1,"spent":0.2,"seen":24,"matched":18,"dropped":2,"degraded":1}}]}`,
		status(alpha, "done", 1, 1, 2.5, "", 0),
		status(beta, "pending", 0, 0, 0, "", 1),
		status(gamma, "pending", 0, 0, 0, "", 2))

	charge := event("charge", none, `"budget":{"global_spent":3.25,"jobs":{"beta":0.5}}`)
	torn := frame(19, event("charge", none, `"budget":{"global_spent":103.25,"jobs":{"beta":100.5}}`))
	var wal []byte
	for _, rec := range []struct {
		seq     uint64
		payload string
	}{
		{4, event("update", status(alpha, "running", 1, 0, 0, "", 0), "")},
		{9, event("update", status(beta, "running", 1, 0, 0, "", 1), "")},
		{10, event("update", status(beta, "running", 1, 0.5, 0.75, "", 1), "")},
		{11, event("update", status(gamma, "running", 1, 0, 0, "", 2), "")},
		{12, event("update", status(gamma, "failed", 1, 0, 0.25, "domain superset: jobs: permanent job failure", 2), "")},
		{13, event("budget", none, `"budget":{"global_spent":2.75,"jobs":{"alpha":2.5,"gamma":0.25}}`)},
		{14, charge},
		{14, charge},
		{15, event("submit", status(delta, "pending", 0, 0, 0, "", 3), "")},
		{16, event("update", status(delta, "cancelled", 0, 0, 0, "", 3), "")},
		{17, event("stream", none, `"stream":{"job":"feed","mark":{"window":2,"spent":0.3,"seen":36,"matched":27,"dropped":2,"degraded":1}}`)},
		{18, event("stream", none, `"stream":{"job":"harvest","mark":{"window":0,"spent":0.22,"seen":5,"matched":4,"dropped":0,"degraded":0,"enum":{"counts":{"adams":1,"lincoln":1,"obama":2,"washington":1},"display":{"adams":"Adams","lincoln":"Lincoln","obama":"Obama","washington":"Washington"},"first_batch":{"adams":0,"lincoln":0,"obama":0,"washington":0},"contributions":5}}}`)},
	} {
		wal = append(wal, frame(rec.seq, rec.payload)...)
	}
	wal = append(wal, torn[:len(torn)/2]...)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range map[string][]byte{"snapshot.dat": frame(8, snapshot), "wal.dat": wal} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// job spells a TSA job the fixture's jobs share.
func job(name, tenant string, priority int) string {
	return fmt.Sprintf(`{"Name":%q,"Kind":"tsa","Query":{"Keywords":["iPhone4S"],"RequiredAccuracy":0.9,"Domain":["Good","Bad"],"Start":"2011-10-14T00:00:00Z","Window":86400000000000},"Tenant":%q,"Priority":%d,"Budget":0,"Aggregator":""}`,
		name, tenant, priority)
}

// status spells one job lifecycle record.
func status(job, state string, attempts int, progress, cost float64, errMsg string, seq uint64) string {
	if errMsg != "" {
		errMsg = fmt.Sprintf(`,"error":%q`, errMsg)
	}
	return fmt.Sprintf(`{"job":%s,"state":%q,"attempts":%d,"progress":%s,"cost":%s%s,"seq":%d}`,
		job, state, attempts, num(progress), num(cost), errMsg, seq)
}

// event spells one WAL record; extra is its budget or stream field.
func event(op, status, extra string) string {
	if extra != "" {
		extra = "," + extra
	}
	return fmt.Sprintf(`{"op":%q,"status":%s%s}`, op, status, extra)
}

func num(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

func frame(seq uint64, payload string) []byte {
	buf := make([]byte, 16, 16+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	crc := crc32.Update(crc32.ChecksumIEEE(buf[4:12]), crc32.IEEETable, []byte(payload))
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return append(buf, payload...)
}
