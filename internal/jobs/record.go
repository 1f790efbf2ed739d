// Job record codec: the value stored under j/<name>.
//
// A record is one version byte followed by walStatus's fields in
// declaration order:
//
//	string       uvarint length, then the bytes
//	string list  uvarint 0 for nil, else 1+count, then each string
//	int, Duration zigzag varint
//	uint64       uvarint
//	float64      8 bytes, little-endian IEEE 754 bits
//	*StreamSpec, *EnumSpec  presence byte (0 nil, 1 set), then the fields
//	Query.Start  a string: the time's RFC 3339 text, as JSON spelled it
//
// Records written before the binary format are walStatus JSON, which
// starts with '{'; decodeRecord refuses them with
// jobstore.ErrRetiredFormat.
package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"cdas/internal/jobstore"
)

// recordV1 leads every binary job record. A later layout takes the next
// value; a binary that does not know it refuses the record, and so the
// store, at boot.
const recordV1 byte = 0x01

// encodeRecord encodes a job record in the binary format. It refuses
// exactly what json.Marshal refused: a NaN or infinite float and a
// Query.Start that RFC 3339 cannot spell (a year outside [0, 9999] or a
// zone offset of a day or more), so such a transition is undone as
// before.
func encodeRecord(ws walStatus) ([]byte, error) {
	j, q := &ws.Job, &ws.Job.Query
	start, err := q.Start.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("query start: %w", err)
	}
	w := recordWriter{b: make([]byte, 0, 160)}
	w.b = append(w.b, recordV1)
	w.str(j.Name)
	w.str(string(j.Kind))
	w.strs(q.Keywords)
	w.float("query accuracy", q.RequiredAccuracy)
	w.strs(q.Domain)
	w.bytes(start)
	w.int(int64(q.Window))
	w.str(j.Tenant)
	w.int(int64(j.Priority))
	w.float("budget", j.Budget)
	w.str(j.Aggregator)
	if w.present(j.Stream != nil) {
		sp := j.Stream
		w.int(int64(sp.Lateness))
		w.int(int64(sp.TargetFill))
		w.int(int64(sp.WindowCapacity))
		w.int(int64(sp.MaxBacklog))
		w.int(int64(sp.Items))
		w.float("stream rate", sp.Rate)
		w.uint(sp.SourceSeed)
	}
	if w.present(j.Enum != nil) {
		sp := j.Enum
		w.float("enum item value", sp.ItemValue)
		w.float("enum target coverage", sp.TargetCoverage)
		w.int(int64(sp.MaxBatches))
		w.int(int64(sp.HITWorkers))
		w.int(int64(sp.PerWorker))
		w.int(int64(sp.Universe))
		w.float("enum popularity", sp.Popularity)
		w.uint(sp.SourceSeed)
	}
	w.str(string(ws.State))
	w.int(int64(ws.Attempts))
	w.float("progress", ws.Progress)
	w.float("cost", ws.Cost)
	w.str(ws.Error)
	w.uint(ws.Seq)
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// errJSONRecord refuses a j/ value in the retired JSON layout.
var errJSONRecord = jobstore.RetiredFormat("a JSON job record, written before the binary record format")

// decodeRecord decodes a binary job record into *ws. No decoded string
// aliases b, so b may be a buffer the caller reuses. It accepts only
// what encodeRecord can write back.
func decodeRecord(b []byte, ws *walStatus) error {
	switch {
	case len(b) == 0:
		return errors.New("empty job record")
	case b[0] == '{':
		return errJSONRecord
	case b[0] == recordV1:
		if err := decodeV1(b, ws); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown job record version 0x%02x (written by a newer binary?)", b[0])
	}
	if !rfc3339Spells(ws.Job.Query.Start) {
		return fmt.Errorf("query start %v has no RFC 3339 spelling", ws.Job.Query.Start)
	}
	return nil
}

func decodeV1(b []byte, ws *walStatus) error {
	r := recordReader{b: b, s: string(b), off: 1}
	var j Job
	j.Name = r.str()
	j.Kind = Kind(r.str())
	j.Query.Keywords = r.strs()
	j.Query.RequiredAccuracy = r.float()
	j.Query.Domain = r.strs()
	if start := r.bytes(); r.err == nil {
		if err := j.Query.Start.UnmarshalText(start); err != nil {
			return fmt.Errorf("query start: %w", err)
		}
	}
	j.Query.Window = time.Duration(r.varint())
	j.Tenant = r.str()
	j.Priority = r.int()
	j.Budget = r.float()
	j.Aggregator = r.str()
	if r.present() {
		j.Stream = &StreamSpec{
			Lateness:       time.Duration(r.varint()),
			TargetFill:     time.Duration(r.varint()),
			WindowCapacity: r.int(),
			MaxBacklog:     r.int(),
			Items:          r.int(),
			Rate:           r.float(),
			SourceSeed:     r.uvarint(),
		}
	}
	if r.present() {
		j.Enum = &EnumSpec{
			ItemValue:      r.float(),
			TargetCoverage: r.float(),
			MaxBatches:     r.int(),
			HITWorkers:     r.int(),
			PerWorker:      r.int(),
			Universe:       r.int(),
			Popularity:     r.float(),
			SourceSeed:     r.uvarint(),
		}
	}
	*ws = walStatus{
		Job:      j,
		State:    State(r.str()),
		Attempts: r.int(),
		Progress: r.float(),
		Cost:     r.float(),
		Error:    r.str(),
		Seq:      r.uvarint(),
	}
	if r.err == nil && r.off != len(b) {
		r.fail("%d trailing bytes", len(b)-r.off)
	}
	return r.err
}

// rfc3339Spells reports whether t.MarshalText succeeds: a four-digit
// year and a zone offset under a day. UnmarshalText accepts offsets up
// to 99 hours, so decoding checks this to accept only what it could
// write back.
func rfc3339Spells(t time.Time) bool {
	_, offset := t.Zone()
	year := t.Year()
	return year >= 0 && year <= 9999 && offset > -24*60*60 && offset < 24*60*60
}

type recordWriter struct {
	b   []byte
	err error // the first refused value
}

func (w *recordWriter) bytes(p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *recordWriter) str(s string) {
	w.b = binary.AppendUvarint(w.b, uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *recordWriter) strs(l []string) {
	if l == nil {
		w.b = append(w.b, 0)
		return
	}
	w.b = binary.AppendUvarint(w.b, uint64(len(l))+1)
	for _, s := range l {
		w.str(s)
	}
}

func (w *recordWriter) int(v int64) { w.b = binary.AppendVarint(w.b, v) }

func (w *recordWriter) uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

func (w *recordWriter) float(field string, v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && w.err == nil {
		w.err = fmt.Errorf("%s is %v: a job record holds finite numbers only", field, v)
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *recordWriter) present(set bool) bool {
	if set {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
	return set
}

// recordReader reads a binary record. After the first error every read
// returns a zero value, so a decoder checks err once, at the end.
type recordReader struct {
	b   []byte
	s   string // a copy of b: every decoded string is a slice of it
	off int
	err error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("job record byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *recordReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *recordReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("%d overflows int", v)
		return 0
	}
	return int(v)
}

// span reads a length prefix and returns the bounds of the bytes it
// covers.
func (r *recordReader) span() (from, to int) {
	n := r.uvarint()
	if r.err != nil {
		return 0, 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("length %d runs past the record", n)
		return 0, 0
	}
	from, r.off = r.off, r.off+int(n)
	return from, r.off
}

func (r *recordReader) str() string {
	from, to := r.span()
	return r.s[from:to]
}

func (r *recordReader) bytes() []byte {
	from, to := r.span()
	return r.b[from:to]
}

func (r *recordReader) strs() []string {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	// Every string takes at least its length byte, which bounds the
	// allocation a corrupt count can ask for.
	if n-1 > uint64(len(r.b)-r.off) {
		r.fail("list of %d strings runs past the record", n-1)
		return nil
	}
	l := make([]string, n-1)
	for i := range l {
		l[i] = r.str()
	}
	return l
}

func (r *recordReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("non-finite float %v", v)
		return 0
	}
	r.off += 8
	return v
}

func (r *recordReader) present() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) || r.b[r.off] > 1 {
		r.fail("bad presence byte")
		return false
	}
	r.off++
	return r.b[r.off-1] == 1
}
