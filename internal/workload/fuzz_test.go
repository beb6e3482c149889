package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV: any input either fails to parse or yields a valid trace
// that WriteCSV writes out and ReadCSV reads back unchanged. Never a
// panic.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("parsed trace is invalid: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}

// FuzzReadJobsCSV: any input either fails to parse or yields jobs that
// WriteJobsCSV writes out and ReadJobsCSV reads back unchanged. Never a
// panic.
func FuzzReadJobsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		jobs, err := ReadJobsCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJobsCSV(&out, jobs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJobsCSV(&out)
		if err != nil {
			t.Fatalf("written jobs do not read back: %v", err)
		}
		if !reflect.DeepEqual(back, jobs) {
			t.Fatalf("round trip changed the jobs:\n got %+v\nwant %+v", back, jobs)
		}
	})
}
