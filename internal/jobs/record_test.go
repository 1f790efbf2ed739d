package jobs

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdas/internal/jobstore"
)

var timeType = reflect.TypeOf(time.Time{})

// randomize fills v with random values by reflection, so a field added
// to walStatus later is exercised without this test naming it. Strings
// are valid UTF-8 (JSON rewrites invalid bytes; the binary record keeps
// them), lists and pointers are nil, empty or filled at random, and
// times carry zone offsets JSON can spell. A kind the codec cannot hold
// fails the test.
func randomize(t *testing.T, r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(randomString(r))
	case reflect.Int, reflect.Int64:
		switch r.IntN(3) {
		case 0:
			v.SetInt(int64(r.IntN(200)) - 100)
		case 1:
			v.SetInt(int64(r.Uint64()))
		}
	case reflect.Uint64:
		if r.IntN(3) > 0 {
			v.SetUint(r.Uint64() >> r.UintN(64))
		}
	case reflect.Float64:
		v.SetFloat(randomFloat(r))
	case reflect.Slice:
		switch r.IntN(3) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + r.IntN(4)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < v.Len(); i++ {
				randomize(t, r, v.Index(i))
			}
		}
	case reflect.Pointer:
		if r.IntN(2) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		randomize(t, r, v.Elem())
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(randomTime(r)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				randomize(t, r, v.Field(i))
			}
		}
	default:
		t.Fatalf("walStatus holds a %s (%s): teach encodeRecord, decodeV1 and this test about it", v.Kind(), v.Type())
	}
}

func randomString(r *rand.Rand) string {
	const alphabet = "abcXYZ09 -_/.:\"\\<>&\x00\n\té日本🙂\u2028\u00ff"
	runes := []rune(alphabet)
	var b strings.Builder
	for n := r.IntN(12); n > 0; n-- {
		b.WriteRune(runes[r.IntN(len(runes))])
	}
	return b.String()
}

func randomFloat(r *rand.Rand) float64 {
	switch r.IntN(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.MaxFloat64 * float64(1-2*r.IntN(2))
	case 3:
		return math.SmallestNonzeroFloat64
	case 4:
		return r.NormFloat64() * 1e3
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randomTime picks an instant in years 1–9998 in UTC, Local, or a fixed
// zone whose offset may carry seconds (which RFC 3339 drops, in both
// formats alike).
func randomTime(r *rand.Rand) time.Time {
	t := time.Unix(r.Int64N(315_000_000_000)-62_000_000_000, r.Int64N(1e9))
	switch r.IntN(4) {
	case 0:
		return t.UTC()
	case 1:
		return t.Local()
	case 2:
		return t.In(time.FixedZone("", (r.IntN(48)-24)*1800))
	}
	return t.In(time.FixedZone("ZONE", r.IntN(2*86399)-86399))
}

// jsonRoundTrip is what the JSON record format made of ws.
func jsonRoundTrip(t *testing.T, ws walStatus) (walStatus, error) {
	raw, err := json.Marshal(ws)
	if err != nil {
		return walStatus{}, err
	}
	var back walStatus
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("json.Unmarshal of json.Marshal output: %v", err)
	}
	return back, nil
}

// TestRecordMatchesJSONRoundTrip: for random records, decoding the
// binary encoding gives exactly what a JSON round trip gave — nil and
// empty lists kept apart, negative integers, -0, non-ASCII text and
// Query.Start's zone offset included.
func TestRecordMatchesJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(32, 1))
	for i := 0; i < 3000; i++ {
		var ws walStatus
		randomize(t, r, reflect.ValueOf(&ws).Elem())
		want, jsonErr := jsonRoundTrip(t, ws)
		enc, err := encodeRecord(ws)
		if (err != nil) != (jsonErr != nil) {
			t.Fatalf("record %d: encodeRecord err = %v, json.Marshal err = %v\n%+v", i, err, jsonErr, ws)
		}
		if err != nil {
			continue
		}
		var got walStatus
		if err := decodeRecord(enc, &got); err != nil {
			t.Fatalf("record %d: decodeRecord: %v\n%+v", i, err, ws)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: binary round trip\n%+v\nJSON round trip\n%+v", i, got, want)
		}
	}
}

// TestRecordRefusesWhatJSONRefused: every float field refuses NaN and
// ±Inf, and Query.Start refuses a year outside [0, 9999] or a zone
// offset of a day — exactly the values json.Marshal refused. A nil
// spec's floats are not written, so they cannot be refused.
func TestRecordRefusesWhatJSONRefused(t *testing.T) {
	base := walStatus{Job: testJob("x")}
	base.Job.Stream = &StreamSpec{Rate: 1}
	base.Job.Enum = &EnumSpec{ItemValue: 1}
	var floats []string
	var collect func(v reflect.Value, path string)
	collect = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Float64:
			floats = append(floats, path)
		case reflect.Pointer:
			collect(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				collect(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	collect(reflect.ValueOf(base), "")
	if len(floats) != 8 {
		t.Fatalf("found %d float fields %v, want 8", len(floats), floats)
	}
	setField := func(ws *walStatus, path string, f float64) {
		v := reflect.ValueOf(ws).Elem()
		for _, name := range strings.Split(path[1:], ".") {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			v = v.FieldByName(name)
		}
		v.SetFloat(f)
	}
	for _, path := range floats {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ws := base
			stream, enum := *base.Job.Stream, *base.Job.Enum
			ws.Job.Stream, ws.Job.Enum = &stream, &enum
			setField(&ws, path, f)
			_, jsonErr := json.Marshal(ws)
			_, err := encodeRecord(ws)
			if jsonErr == nil || err == nil {
				t.Errorf("%s = %v: encodeRecord err = %v, json.Marshal err = %v, want both to refuse", path, f, err, jsonErr)
			}
		}
	}
	for _, tc := range []struct {
		start  time.Time
		refuse bool
	}{
		{time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC), true},
		{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), true},
		{time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)), true},
		{time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600)), true},
		{time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), false},
		{time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600-1)), false},
		{time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600+1)), false},
	} {
		ws := base
		ws.Job.Query.Start = tc.start
		_, jsonErr := json.Marshal(ws)
		_, err := encodeRecord(ws)
		if (jsonErr != nil) != tc.refuse || (err != nil) != tc.refuse {
			t.Errorf("start %v: encodeRecord err = %v, json.Marshal err = %v, want refused = %v", tc.start, err, jsonErr, tc.refuse)
		}
		if rfc3339Spells(tc.start) == tc.refuse {
			t.Errorf("start %v: rfc3339Spells = %v, want %v", tc.start, !tc.refuse, !tc.refuse)
		}
	}
}

// TestRecordRefusedCommitIsUndone: a transition whose record cannot be
// encoded fails and leaves the job as it was, in memory and on disk.
func TestRecordRefusedCommitIsUndone(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir)
	if _, err := s.Submit(testJob("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Claim(); !ok {
		t.Fatal("claim failed")
	}
	if err := s.Progress("a", 0.5, 1); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Status("a")
	if err := s.Progress("a", math.NaN(), 0); err == nil {
		t.Fatal("Progress(NaN) succeeded")
	}
	if after, _ := s.Status("a"); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Progress changed the record:\n%+v\nwas\n%+v", after, before)
	}
	late := testJob("late")
	late.Query.Start = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := s.Submit(late); err == nil {
		t.Fatal("Submit with a year-10000 start succeeded")
	}
	if _, ok := s.Status("late"); ok {
		t.Fatal("refused Submit left the job registered")
	}
	s.Close()
	var stored walStatus
	if err := decodeRecord(storeValues(t, dir)[lsmPrimaryKey("a")], &stored); err != nil {
		t.Fatal(err)
	}
	if got := fromWal(stored); !reflect.DeepEqual(got, before) {
		t.Fatalf("stored record after a refused Progress:\n%+v\nwant\n%+v", got, before)
	}
}

// legacyRecord is a j/ value in the retired JSON layout:
// json.Marshal(walStatus), byte for byte. decodeRecord refuses it.
const legacyRecord = `{"job":{"Name":"legacy","Kind":"tsa","Query":{"Keywords":["iPhone4S"],"RequiredAccuracy":0.9,"Domain":["pos","neg"],"Start":"2011-10-14T09:30:00+05:30","Window":86400000000000},"Tenant":"acme","Priority":-2,"Budget":1.5,"Aggregator":""},"state":"done","attempts":1,"progress":1,"cost":0.25,"seq":9}`

func FuzzDecodeRecord(f *testing.F) {
	ws := walStatus{Job: continuousTestJob("fuzz"), State: StateRunning, Attempts: 2, Progress: 0.5, Error: "retry: ✗", Seq: 7}
	ws.Job.Enum = &EnumSpec{ItemValue: 1, Popularity: 1.2}
	enc, err := encodeRecord(ws)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(legacyRecord))
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append([]byte{0x02}, enc[1:]...))
	f.Add([]byte(legacyRecord[:40]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var got walStatus
		err := decodeRecord(b, &got)
		if len(b) > 0 && b[0] == '{' && !errors.Is(err, jobstore.ErrRetiredFormat) {
			t.Fatalf("a JSON record decoded to err = %v, want ErrRetiredFormat", err)
		}
		if err != nil {
			return
		}
		enc, err := encodeRecord(got)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v\n%+v", err, got)
		}
		var again walStatus
		if err := decodeRecord(enc, &again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("re-encoded record decodes to\n%+v\nnot\n%+v", again, got)
		}
	})
}

// TestRecordCorruptNamesKey: a binary record that does not decode fails
// the boot with an error naming its key, and the store is left as it was.
func TestRecordCorruptNamesKey(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir)
	if _, err := s.Submit(testJob("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	key := lsmPrimaryKey("a")
	putValues(t, dir, map[string][]byte{key: storeValues(t, dir)[key][:20]})
	before := storeValues(t, dir)
	if _, err := OpenService(ServiceConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
		t.Fatalf("boot with a corrupt %s: err = %v, want one naming the key", key, err)
	}
	if after := storeValues(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused boot changed the store")
	}
}
