package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/testutil"
)

// mustOpenJobStore opens the journal or fails the test.
func mustOpenJobStore(t *testing.T, path string) *JobStore {
	t.Helper()
	js, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// maxSeq reads the highest numeric id suffix the store's table has seen:
// ids minted after a restart continue past it.
func maxSeq(js *JobStore) int {
	js.table.mu.Lock()
	defer js.table.mu.Unlock()
	return js.table.maxSeq
}

// record performs one transition on a bare store the way Server.record
// does on an attached one: append to the file, then apply to the table.
func record(js *JobStore, rec journalRecord) error {
	err := js.append(rec)
	js.table.apply(rec)
	return err
}

// appendAll journals recs in order, failing the test on error.
func appendAll(t *testing.T, js *JobStore, recs ...journalRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := record(js, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js := mustOpenJobStore(t, path)
	res := &finject.Result{Injections: 20}
	appendAll(t, js,
		journalRecord{Event: "submit", Job: "job-000001", Kind: "batch",
			Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", 1)}},
		journalRecord{Event: "cell", Job: "job-000001", Index: 0,
			State: "done", Injections: 20, Result: res},
		journalRecord{Event: "finish", Job: "job-000001", State: "done"},
	)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2 := mustOpenJobStore(t, path)
	defer js2.Close()
	snaps := js2.table.list()
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.id != "job-000001" || snap.kind != "batch" || snap.state != "done" {
		t.Fatalf("snapshot %+v", snap)
	}
	if len(snap.cells) != 1 || snap.cells[0].State != "done" || snap.cells[0].Injections != 20 {
		t.Fatalf("cells %+v", snap.cells)
	}
	if snap.results[0] == nil || snap.results[0].Injections != 20 {
		t.Fatalf("results %+v", snap.cells)
	}
	if maxSeq(js2) != 1 {
		t.Fatalf("max seq %d, want 1", maxSeq(js2))
	}
}

// TestJobStoreSkipsInvalidTransitions pins the "never invent state"
// rule: syntactically valid records that reference an unknown job or an
// out-of-range cell index are dropped on replay, not guessed at.
func TestJobStoreSkipsInvalidTransitions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js := mustOpenJobStore(t, path)
	appendAll(t, js,
		journalRecord{Event: "cell", Job: "job-000404", Index: 0, State: "done"},
		journalRecord{Event: "finish", Job: "job-000404", State: "done"},
		journalRecord{Event: "delete", Job: "job-000404"},
		journalRecord{Event: "submit", Job: "job-000002", Kind: "batch",
			Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", 1)}},
		journalRecord{Event: "cell", Job: "job-000002", Index: 7, State: "done"},
	)
	js.Close()

	js2 := mustOpenJobStore(t, path)
	defer js2.Close()
	snaps := js2.table.list()
	if len(snaps) != 1 || snaps[0].id != "job-000002" {
		t.Fatalf("snapshots %+v", snaps)
	}
	if snaps[0].cells[0].State != "pending" {
		t.Fatalf("out-of-range cell record mutated cell 0: %+v", snaps[0].cells)
	}
	// The bad job's id still advances the sequence: ids must never be
	// reused even against half-garbage journals.
	if maxSeq(js2) != 404 {
		t.Fatalf("max seq %d, want 404", maxSeq(js2))
	}
}

// TestJobStoreTornTailEveryByteOffset is the torn-write sweep demanded
// by the restart-proof acceptance bar: a real journal is truncated at
// every byte offset and reopened. Recovery must never error, never
// panic, and never invent state — every job it reports is a job the full
// journal knows, every "done" job carries exactly the results the full
// journal recorded, and the journal file is left on a clean line
// boundary ready for appends.
func TestJobStoreTornTailEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	js := mustOpenJobStore(t, full)
	res1 := &finject.Result{Injections: 20, Outcomes: [4]int{18, 1, 1, 0}}
	res2 := &finject.Result{Injections: 40, Outcomes: [4]int{39, 1, 0, 0}}
	appendAll(t, js,
		journalRecord{Event: "submit", Job: "job-000001", Kind: "batch",
			Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", 1), testutil.MiniSpec("transpose", 2)}},
		journalRecord{Event: "cell", Job: "job-000001", Index: 0, State: "done", Injections: 20, Result: res1},
		journalRecord{Event: "cell", Job: "job-000001", Index: 1, State: "done", Injections: 40, Result: res2},
		journalRecord{Event: "finish", Job: "job-000001", State: "done"},
		journalRecord{Event: "submit", Job: "exp-000002", Kind: "experiment",
			Spec: json.RawMessage(`{"version":1}`)},
		journalRecord{Event: "delete", Job: "job-000001"},
	)
	js.Close()

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Reference replay of the complete journal.
	ref := make(map[string]*job)
	jsRef := mustOpenJobStore(t, full)
	for _, snap := range jsRef.table.list() {
		ref[snap.id] = snap
	}
	jsRef.Close()

	torn := filepath.Join(dir, "torn.jsonl")
	for off := 0; off <= len(data); off++ {
		if err := os.WriteFile(torn, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		tjs, err := OpenJobStore(torn)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		for _, snap := range tjs.table.list() {
			// "job-000001" may legitimately reappear here: its delete
			// record can be beyond the tear. Its contents must still
			// match what the full journal recorded for it.
			want, ok := ref[snap.id]
			if !ok && snap.id == "job-000001" {
				want = refBeforeDelete(t, data)
			} else if !ok {
				t.Fatalf("offset %d: invented job %q", off, snap.id)
			}
			if snap.state == "done" {
				if want.state != "done" {
					t.Fatalf("offset %d: job %s invented a finish", off, snap.id)
				}
				if !reflect.DeepEqual(snap.cells, want.cells) {
					t.Fatalf("offset %d: job %s results diverge from the full journal", off, snap.id)
				}
			}
			for i, c := range snap.cells {
				if c.State != "pending" && !reflect.DeepEqual(c, want.cells[i]) {
					t.Fatalf("offset %d: job %s cell %d invented state %+v", off, snap.id, i, c)
				}
			}
		}
		// Whatever was torn, the survivor must accept appends cleanly.
		if err := record(tjs, journalRecord{Event: "submit", Job: "job-000999", Kind: "batch"}); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		tjs.Close()
		rjs, err := OpenJobStore(torn)
		if err != nil {
			t.Fatalf("offset %d: reopen after append: %v", off, err)
		}
		if _, ok := findSnap(rjs.table.list(), "job-000999"); !ok {
			t.Fatalf("offset %d: post-recovery append lost", off)
		}
		rjs.Close()
	}
}

// refBeforeDelete replays the full journal minus its delete records, for
// comparing truncations that tore the delete off.
func refBeforeDelete(t *testing.T, data []byte) *job {
	t.Helper()
	path := filepath.Join(t.TempDir(), "nodelete.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range splitLines(data) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err == nil && rec.Event == "delete" {
			continue
		}
		f.Write(line)
		f.Write([]byte("\n"))
	}
	f.Close()
	js := mustOpenJobStore(t, path)
	defer js.Close()
	snap, ok := findSnap(js.table.list(), "job-000001")
	if !ok {
		t.Fatal("reference journal lost job-000001")
	}
	return snap
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func findSnap(snaps []*job, id string) (*job, bool) {
	for _, s := range snaps {
		if s.id == id {
			return s, true
		}
	}
	return nil, false
}

// TestJobStoreCompaction drives the journal past the dead-record
// threshold and reopens it: the file must shrink to the live minimum
// while replaying to the identical job set.
func TestJobStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js := mustOpenJobStore(t, path)
	// Submit + delete churn: every deleted job leaves 2 dead records.
	for i := 1; i <= campaign.CompactDeadThreshold; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendAll(t, js,
			journalRecord{Event: "submit", Job: id, Kind: "batch",
				Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", uint64(i))}},
			journalRecord{Event: "delete", Job: id},
		)
	}
	appendAll(t, js, journalRecord{Event: "submit", Job: "job-999999", Kind: "batch",
		Cells: []campaign.CellSpec{testutil.MiniSpec("transpose", 1)}})
	before := js.Records()
	js.Close()

	js2 := mustOpenJobStore(t, path)
	defer js2.Close()
	if js2.Records() >= before {
		t.Fatalf("no compaction: %d records before, %d after", before, js2.Records())
	}
	if js2.Records() != 1 || js2.Len() != 1 {
		t.Fatalf("compacted to %d records / %d jobs, want 1 / 1", js2.Records(), js2.Len())
	}
	if _, ok := findSnap(js2.table.list(), "job-999999"); !ok {
		t.Fatal("live job lost in compaction")
	}
	if maxSeq(js2) != 999999 {
		t.Fatalf("max seq %d after compaction", maxSeq(js2))
	}
}

// TestJobStoreMaxSeq pins id-sequence restoration inputs, including ids
// that must not advance the sequence.
func TestJobStoreMaxSeq(t *testing.T) {
	cases := []struct {
		name string
		ids  []string
		want int
	}{
		{"empty", nil, 0},
		{"single batch", []string{"job-000007"}, 7},
		{"mixed prefixes share one sequence", []string{"job-000002", "exp-000011", "job-000005"}, 11},
		{"deleted ids still count", []string{"job-000009"}, 9},
		{"unparseable suffix ignored", []string{"job-abc", "weird"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			js := mustOpenJobStore(t, path)
			for _, id := range tc.ids {
				appendAll(t, js, journalRecord{Event: "submit", Job: id, Kind: "batch"})
			}
			if tc.name == "deleted ids still count" {
				appendAll(t, js, journalRecord{Event: "delete", Job: tc.ids[0]})
			}
			js.Close()
			js2 := mustOpenJobStore(t, path)
			defer js2.Close()
			if got := maxSeq(js2); got != tc.want {
				t.Fatalf("max seq = %d, want %d", got, tc.want)
			}
		})
	}
}
