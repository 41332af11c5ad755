package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// The fleet keeps four append-only logs — the JSON result store, the
// binary result store, the job journal and the ownership journal — all
// on wire.Journal. This file drives each through its owner's API and
// holds all four to one crash contract; the journal's own tests
// (internal/wire) cover the mechanism, these cover that no owner
// weakens it.

// openedLog is one log, opened (and so healed) through its owner.
type openedLog struct {
	ids     []string          // identities of the replayed records, in order
	add     func(i int) error // appends record i
	compact func() error      // nil for a log without compaction
	close   func()
}

type logCase struct {
	name   string
	file   string
	framed bool // CRC frames; otherwise newline-terminated lines
	open   func(path string) (*openedLog, error)
}

func cellID(i int) campaign.CellKey { return campaign.CellKey(fmt.Sprintf("cell-%03d", i)) }
func jobID(i int) string            { return fmt.Sprintf("job-%06d", i+1) }

func storeCase(format, file string) logCase {
	return logCase{name: format + " store", file: file, framed: format == campaign.FormatBinary,
		open: func(path string) (*openedLog, error) {
			st, err := campaign.OpenStore(path, format)
			if err != nil {
				return nil, err
			}
			var ids []string
			for _, k := range st.Keys() {
				ids = append(ids, string(k))
			}
			if st.Records() != len(ids) {
				return nil, fmt.Errorf("store replayed %d records for %d distinct keys", st.Records(), len(ids))
			}
			return &openedLog{
				ids:     ids,
				add:     func(i int) error { return st.Put(cellID(i), &finject.Result{Injections: 10 + i}) },
				compact: st.Compact,
				close:   func() { st.Close() },
			}, nil
		}}
}

var logCases = []logCase{
	storeCase(campaign.FormatJSON, "cells.jsonl"),
	storeCase(campaign.FormatBinary, "cells.store"),
	{name: "job journal", file: "jobs.jsonl", open: func(path string) (*openedLog, error) {
		js, err := OpenJobStore(path)
		if err != nil {
			return nil, err
		}
		var ids []string
		for _, snap := range js.table.list() {
			ids = append(ids, snap.id)
		}
		return &openedLog{
			ids: ids,
			add: func(i int) error {
				return record(js, journalRecord{Event: "submit", Job: jobID(i), Kind: "batch",
					Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", uint64(i))}})
			},
			compact: js.Compact,
			close:   func() { js.Close() },
		}, nil
	}},
	{name: "ownership journal", file: OwnershipFile, framed: true, open: func(path string) (*openedLog, error) {
		c := NewCluster(filepath.Dir(path), "srv", time.Second, nil)
		c.now = func() time.Time { return time.UnixMilli(1_700_000_000_000) } // reproducible record bytes
		recs, err := c.read()
		if err != nil {
			return nil, err
		}
		var ids []string
		for _, rec := range recs {
			ids = append(ids, fmt.Sprint(rec.Epoch))
		}
		return &openedLog{
			ids: ids,
			add: func(i int) error {
				return c.append(wire.OwnerRecord{Epoch: uint64(i + 1), Server: "srv", Event: wire.OwnerClaim})
			},
			close: func() {},
		}, nil
	}},
}

// wantIDs is what a log holding records 0..n-1 replays.
func (lc logCase) wantIDs(n int) []string {
	var ids []string
	for i := 0; i < n; i++ {
		switch lc.file {
		case "jobs.jsonl":
			ids = append(ids, jobID(i))
		case OwnershipFile:
			ids = append(ids, fmt.Sprint(i+1))
		default:
			ids = append(ids, string(cellID(i)))
		}
	}
	return ids
}

// build writes records 0..k-1 through the owner and returns the file
// image and every record boundary (bounds[i] = file size with i records).
func (lc logCase) build(t *testing.T, path string, k int) (data []byte, bounds []int) {
	t.Helper()
	size := func() int {
		st, err := os.Stat(path)
		if err != nil {
			return 0 // the ownership journal is created by its first append
		}
		return int(st.Size())
	}
	l, err := lc.open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := l.add(i); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, size())
	}
	l.close()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := 0
	if lc.framed {
		header = wire.HeaderSize
	}
	return data, append([]int{header}, bounds...)
}

// TestLogsCutEveryOffset truncates each log at every byte offset, the
// shape a crash mid-append leaves: opening succeeds, replays exactly the
// whole records before the cut, leaves the file on a record boundary,
// the next append lands there and a reopen sees prefix + 1.
func TestLogsCutEveryOffset(t *testing.T) {
	for _, lc := range logCases {
		t.Run(lc.name, func(t *testing.T) {
			const k = 4
			dir := t.TempDir()
			full := filepath.Join(dir, "full")
			os.Mkdir(full, 0o755)
			data, bounds := lc.build(t, filepath.Join(full, lc.file), k)
			path := filepath.Join(dir, lc.file)
			for off := 0; off <= len(data); off++ {
				whole := 0
				for whole < k && bounds[whole+1] <= off {
					whole++
				}
				if err := os.WriteFile(path, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				torn0 := telemetry.JobJournalTornTails.Value()
				l, err := lc.open(path)
				if err != nil {
					t.Fatalf("cut at %d: %v", off, err)
				}
				if !reflect.DeepEqual(l.ids, lc.wantIDs(whole)) {
					t.Fatalf("cut at %d: replayed %v, want the first %d records", off, l.ids, whole)
				}
				if lc.file == "jobs.jsonl" {
					healed := off != bounds[whole]
					if got := telemetry.JobJournalTornTails.Value() - torn0; (got == 1) != healed {
						t.Fatalf("cut at %d: torn-tail counter moved by %d, healed=%v", off, got, healed)
					}
				}
				if err := l.add(whole); err != nil {
					t.Fatalf("cut at %d: append after recovery: %v", off, err)
				}
				l.close()
				if after, _ := os.ReadFile(path); whole < k && !bytes.Equal(after, data[:bounds[whole+1]]) {
					t.Fatalf("cut at %d: heal + append did not reproduce the %d-record file", off, whole+1)
				}
				l, err = lc.open(path)
				if err != nil || !reflect.DeepEqual(l.ids, lc.wantIDs(whole+1)) {
					t.Fatalf("cut at %d: reopen replayed %v (err %v), want %d records", off, l, err, whole+1)
				}
				l.close()
			}
		})
	}
}

// TestLogsRejectCorruption damages a whole record in the middle of each
// log — one flipped byte inside a CRC frame, or an unparsable line — and
// requires an error (wire.ErrCorrupt for frames) with the file left
// exactly as it was: corruption is never healed by guessing.
func TestLogsRejectCorruption(t *testing.T) {
	for _, lc := range logCases {
		t.Run(lc.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full")
			os.Mkdir(full, 0o755)
			data, bounds := lc.build(t, filepath.Join(full, lc.file), 3)
			path := filepath.Join(dir, lc.file)
			var images [][]byte
			if lc.framed {
				// Each non-final frame: its kind byte, a payload byte, a CRC
				// byte. (A damaged length prefix that points past the end of
				// the file is indistinguishable from a torn append.)
				for i := 0; i < 2; i++ {
					for _, off := range []int{bounds[i], bounds[i] + 7, bounds[i+1] - 1} {
						img := append([]byte(nil), data...)
						img[off] ^= 0x01
						images = append(images, img)
					}
				}
			} else {
				for _, at := range []int{bounds[0], bounds[1]} {
					images = append(images, append(append(append([]byte(nil), data[:at]...), "{definitely not json\n"...), data[at:]...))
				}
			}
			for i, img := range images {
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				l, err := lc.open(path)
				if err == nil {
					// The ownership journal's reader is read-only; its writer
					// must refuse too.
					err = l.add(9)
				}
				if err == nil {
					t.Fatalf("damage %d: corrupt log opened and appended cleanly", i)
				}
				if lc.framed && !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("damage %d: error %v does not wrap wire.ErrCorrupt", i, err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, img) {
					t.Fatalf("damage %d: a failed open modified the file", i)
				}
			}
		})
	}
}

// TestLogsSurviveCrashedCompaction: a crash after the compacted copy was
// written but before the rename leaves a stray temporary sibling; the old
// file is intact, opens as before, and the next compaction goes through.
func TestLogsSurviveCrashedCompaction(t *testing.T) {
	for _, lc := range logCases {
		t.Run(lc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, lc.file)
			data, _ := lc.build(t, path, 3)
			if err := os.WriteFile(filepath.Join(dir, "."+lc.file+".123.tmp"), data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := lc.open(path)
			if err != nil || !reflect.DeepEqual(l.ids, lc.wantIDs(3)) {
				t.Fatalf("open beside a crashed compaction's leftover: %v, err %v", l, err)
			}
			defer l.close()
			if l.compact == nil {
				return
			}
			if err := l.compact(); err != nil {
				t.Fatal(err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("compacting a log with no dead records changed its bytes")
			}
		})
	}
}

// The operations behind testdata/parent_jobs*.jsonl and
// testdata/parent_ownership*.fiwr: the parent of the commit that
// introduced wire.Journal ran exactly these to write the files, and
// TestParentFilesByteIdentical replays them on top.

func fixtureJobsBefore(t *testing.T, js *JobStore) {
	t.Helper()
	appendAll(t, js,
		journalRecord{Event: "submit", Job: "job-000001", Kind: "batch", Tenant: "acme",
			Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", 1), testutil.MiniSpec("transpose", 2)}},
		journalRecord{Event: "cell", Job: "job-000001", Index: 0, State: "done", Injections: 20,
			Result: &finject.Result{Injections: 20, Outcomes: [4]int{18, 1, 1, 0}}},
		journalRecord{Event: "cell", Job: "job-000001", Index: 0, State: "done", Cached: true, Injections: 20,
			Result: &finject.Result{Injections: 20, Outcomes: [4]int{18, 1, 1, 0}}},
		journalRecord{Event: "submit", Job: "exp-000002", Kind: "experiment", Spec: json.RawMessage(`{"version":1}`)},
		journalRecord{Event: "submit", Job: "job-000003", Kind: "batch",
			Cells: []campaign.CellSpec{testutil.MiniSpec("scan", 3)}},
		journalRecord{Event: "cell", Job: "job-000003", Index: 0, State: "failed", Error: "boom"},
		journalRecord{Event: "finish", Job: "job-000003", State: "failed", Error: "boom"},
		journalRecord{Event: "delete", Job: "exp-000002"},
	)
}

// fixtureJobsTorn is the half-written record the "before" file ends in.
const fixtureJobsTorn = `{"event":"cell","job":"job-000001","index":1,"sta`

func fixtureJobsAfter(t *testing.T, js *JobStore) {
	t.Helper()
	appendAll(t, js, journalRecord{Event: "cell", Job: "job-000001", Index: 1, State: "done", Injections: 40,
		Result: &finject.Result{Injections: 40, Outcomes: [4]int{39, 1, 0, 0}}})
	if err := js.Compact(); err != nil {
		t.Fatal(err)
	}
}

// fixtureCluster returns a cluster member whose clock ticks one
// millisecond per journal append, so record timestamps are reproducible.
func fixtureCluster(dir, server string, tick *int64) *Cluster {
	c := NewCluster(dir, server, time.Second, nil)
	c.now = func() time.Time { *tick++; return time.UnixMilli(1_700_000_000_000 + *tick) }
	return c
}

func fixtureOwnersBefore() []wire.OwnerRecord {
	return []wire.OwnerRecord{
		{Epoch: 1, Server: "a", Event: wire.OwnerClaim},
		{Epoch: 1, Server: "a", Event: wire.OwnerBeat},
		{Epoch: 1, Server: "a", Event: wire.OwnerRelease},
		{Epoch: 2, Server: "server-b", Event: wire.OwnerClaim},
	}
}

// fixtureOwnerTorn is the record whose first half the "before" file ends in.
var fixtureOwnerTorn = wire.OwnerRecord{Epoch: 3, Server: "c", UnixMillis: 1_700_000_000_999, Event: wire.OwnerClaim}

var fixtureOwnerAfter = wire.OwnerRecord{Epoch: 2, Server: "server-b", Event: wire.OwnerBeat}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParentFilesByteIdentical pins the job journal's and the ownership
// journal's bytes in both directions: the files the pre-Journal code
// wrote (each ending in a torn record) are reproduced byte for byte by
// the same operations here, open to the expected contents, and after one
// more identical append (+ compaction, for the job journal) equal what
// that code produced.
func TestParentFilesByteIdentical(t *testing.T) {
	t.Run("job journal", func(t *testing.T) {
		before, after := readTestdata(t, "parent_jobs.jsonl"), readTestdata(t, "parent_jobs.after.jsonl")
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		js := mustOpenJobStore(t, path)
		fixtureJobsBefore(t, js)
		js.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(append(got, fixtureJobsTorn...), before) {
			t.Fatalf("the same appends write different bytes than the parent commit:\n%s", got)
		}

		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		js = mustOpenJobStore(t, path)
		defer js.Close()
		snaps := js.table.list()
		if len(snaps) != 2 || snaps[0].id != "job-000001" || snaps[1].id != "job-000003" || maxSeq(js) != 3 {
			t.Fatalf("parent journal replayed %d jobs, max seq %d", len(snaps), maxSeq(js))
		}
		// (An unfinished job reads "running" in the one table; the replay-only
		// snapshot this assertion used to read spelled it "".)
		if j1 := snaps[0]; j1.tenant != "acme" || j1.state != "running" || !j1.cells[0].Cached || j1.cells[1].State != "pending" ||
			j1.results[0] == nil || j1.results[0].Injections != 20 {
			t.Fatalf("job-000001 replayed as %+v", j1)
		}
		if j3 := snaps[1]; j3.state != "failed" || j3.errMsg != "boom" || j3.cells[0].Error != "boom" {
			t.Fatalf("job-000003 replayed as %+v", j3)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before[:len(before)-len(fixtureJobsTorn)]) {
			t.Fatal("opening the parent journal did more than drop its torn tail")
		}
		fixtureJobsAfter(t, js)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, after) {
			t.Fatalf("append + compaction diverge from the parent commit:\n got %s\nwant %s", got, after)
		}
	})
	t.Run("ownership journal", func(t *testing.T) {
		before, after := readTestdata(t, "parent_ownership.fiwr"), readTestdata(t, "parent_ownership.after.fiwr")
		torn := wire.AppendRecord(nil, wire.RecOwner, wire.EncodeOwner(fixtureOwnerTorn))
		torn = torn[:len(torn)/2]
		dir := t.TempDir()
		path := filepath.Join(dir, OwnershipFile)
		var tick int64
		c := fixtureCluster(dir, "x", &tick)
		for _, rec := range fixtureOwnersBefore() {
			if err := c.append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(append(got, torn...), before) {
			t.Fatalf("the same appends write different bytes than the parent commit: %q", got)
		}

		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		want := fixtureOwnersBefore()
		for i := range want {
			want[i].UnixMillis = 1_700_000_000_001 + int64(i)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("parent ownership journal replayed %+v, want %+v", recs, want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
			t.Fatal("reading the ownership journal modified it")
		}
		if err := c.append(fixtureOwnerAfter); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, after) {
			t.Fatalf("heal + append diverge from the parent commit:\n got %q\nwant %q", got, after)
		}
	})
}

// TestClusterConcurrentAppendsLoseNothing is the regression test for
// the lost ownership records: cluster members sharing one fresh
// directory append at the same time, and every record must be in the
// journal afterwards. (Before wire.Journal the appender wrote at a
// scanned offset without O_APPEND: 8 members × 50 appends left 325 of
// 400 records, silently.)
func TestClusterConcurrentAppendsLoseNothing(t *testing.T) {
	dir := t.TempDir()
	const members, each = 8, 50
	var wg sync.WaitGroup
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			c := NewCluster(dir, fmt.Sprintf("srv-%d", m), time.Second, nil)
			for i := 0; i < each; i++ {
				if err := c.append(wire.OwnerRecord{Epoch: uint64(i + 1), Server: c.server, Event: wire.OwnerBeat}); err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	recs, err := NewCluster(dir, "reader", time.Second, nil).read()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		seen[fmt.Sprintf("%s/%d", rec.Server, rec.Epoch)] = true
	}
	if len(recs) != members*each || len(seen) != members*each {
		t.Fatalf("journal holds %d records (%d distinct), want %d", len(recs), len(seen), members*each)
	}
}

// TestClusterClaimRaceHasOneWinner races two standbys for the first
// epoch of a fresh directory, repeatedly. Exactly one may activate, and
// both claims must be in the journal: the tiebreak ("the first claim at
// that epoch wins") only works if the loser can see the winner's claim,
// which an overwritten record made impossible.
func TestClusterClaimRaceHasOneWinner(t *testing.T) {
	for round := 0; round < 25; round++ {
		dir := t.TempDir()
		nodes := []*Cluster{
			NewCluster(dir, "node-a", time.Minute, func() (http.Handler, error) { return okHandler(), nil }),
			NewCluster(dir, "node-b", time.Minute, func() (http.Handler, error) { return okHandler(), nil }),
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range nodes {
			c.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
			wg.Add(1)
			go func(c *Cluster) {
				defer wg.Done()
				<-start
				if _, err := c.tryClaim(); err != nil {
					t.Error(err)
				}
			}(c)
		}
		close(start)
		wg.Wait()
		active := 0
		for _, c := range nodes {
			if state, _ := c.State(); state == "active" {
				active++
			}
		}
		recs, err := nodes[0].read()
		if err != nil {
			t.Fatal(err)
		}
		claims := map[string]int{}
		for _, rec := range recs {
			if rec.Event == wire.OwnerClaim {
				claims[rec.Server]++
			}
		}
		if active != 1 {
			t.Fatalf("round %d: %d nodes active after a claim race, want 1 (journal %+v)", round, active, recs)
		}
		// The loser either saw the winner live and never claimed, or
		// claimed second; a claim that was made must still be there.
		if claims["node-a"]+claims["node-b"] != len(recs) || claims["node-a"] > 1 || claims["node-b"] > 1 {
			t.Fatalf("round %d: journal after the race: %+v", round, recs)
		}
	}
}
