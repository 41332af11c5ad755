package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/telemetry"
)

func fakeResult(n int) *finject.Result {
	res := &finject.Result{Injections: n, Occupancy: 0.5}
	res.Outcomes[gpu.OutcomeMasked] = n - 3
	res.Outcomes[gpu.OutcomeSDC] = 2
	res.Outcomes[gpu.OutcomeDUE] = 1
	res.GoldenStats = gpu.RunStats{Cycles: 1234, Instructions: 99, Launches: 1}
	return res
}

// detailResult is fakeResult plus per-injection records, so the round
// trips cover the detail path too.
func detailResult(n int) *finject.Result {
	res := fakeResult(n)
	res.Records = []finject.Record{
		{Fault: gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 2, Bit: 3, Cycle: 40}, Outcome: gpu.OutcomeSDC, CorruptBytes: 16},
		{Fault: gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 9, Bit: 7, Width: 4, Cycle: 77}, Outcome: gpu.OutcomeMasked},
	}
	return res
}

func TestMemoryStoreLRU(t *testing.T) {
	m := NewMemoryStore(2)
	k := func(i uint64) CellKey {
		return CellSpec{Chip: "c", Benchmark: "b", Seed: i}.Key()
	}
	for i := uint64(0); i < 3; i++ {
		if err := m.Put(k(i), fakeResult(int(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("capacity 2 store holds %d", m.Len())
	}
	if _, ok, _ := m.Get(k(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// Touch k(1) so k(2) becomes the eviction candidate.
	if _, ok, _ := m.Get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	if err := m.Put(k(3), fakeResult(13)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get(k(1)); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok, _ := m.Get(k(2)); ok {
		t.Fatal("least recently used k2 survived")
	}
}

func TestMemoryStoreOverwrite(t *testing.T) {
	m := NewMemoryStore(0)
	key := CellSpec{Chip: "c", Benchmark: "b"}.Key()
	if err := m.Put(key, fakeResult(10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(key, fakeResult(20)); err != nil {
		t.Fatal(err)
	}
	res, ok, err := m.Get(key)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if res.Injections != 20 {
		t.Fatalf("overwrite lost: %d", res.Injections)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d after overwrite", m.Len())
	}
}

// eachFormat runs fn once per disk-store format, over a path in a fresh
// directory: everything below holds for both record codecs.
func eachFormat(t *testing.T, fn func(t *testing.T, format, path string)) {
	for _, format := range []string{FormatJSON, FormatBinary} {
		t.Run(format, func(t *testing.T) { fn(t, format, filepath.Join(t.TempDir(), "cells.store")) })
	}
}

func mustOpenStore(t *testing.T, path, format string) *DiskStore {
	t.Helper()
	d, err := OpenStore(path, format)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPut(t *testing.T, d *DiskStore, key CellKey, res *finject.Result) {
	t.Helper()
	if err := d.Put(key, res); err != nil {
		t.Fatal(err)
	}
}

// fileRecords reports the physical records of a store file, read-only.
func fileRecords(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, torn, err := ReadStore(b, func(CellKey, *finject.Result) { n++ }); err != nil || torn != 0 {
		t.Fatalf("ReadStore(%s): torn=%d err=%v", path, torn, err)
	}
	return n
}

func TestDiskStoreRoundTrip(t *testing.T) {
	eachFormat(t, func(t *testing.T, format, path string) {
		d := mustOpenStore(t, path, format)
		k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
		k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
		mustPut(t, d, k1, fakeResult(50))
		mustPut(t, d, k2, detailResult(60))
		// Overwrite k1; the newest record must win after reopen.
		want1 := detailResult(70)
		mustPut(t, d, k1, want1)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		d2 := mustOpenStore(t, path, format)
		defer d2.Close()
		if d2.Len() != 2 || d2.Records() != 3 {
			t.Fatalf("reopened store: len=%d records=%d, want 2/3", d2.Len(), d2.Records())
		}
		got, ok, err := d2.Get(k1)
		if err != nil || !ok {
			t.Fatalf("k1 after reopen: %v %v", ok, err)
		}
		if !reflect.DeepEqual(got, want1) {
			t.Fatalf("k1 round trip: got %+v want %+v", got, want1)
		}
		if got, ok, _ := d2.Get(k2); !ok || got.Injections != 60 || len(got.Records) != 2 {
			t.Fatalf("k2 round trip: %v %+v", ok, got)
		}
	})
}

func TestDiskStoreCompact(t *testing.T) {
	eachFormat(t, func(t *testing.T, format, path string) {
		d := mustOpenStore(t, path, format)
		k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
		k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
		// Overwrites are appends: 10 puts over 2 keys leave 8 dead records.
		for i := 0; i < 5; i++ {
			mustPut(t, d, k1, fakeResult(10+i))
			mustPut(t, d, k2, fakeResult(20+i))
		}
		if got := fileRecords(t, path); got != 10 {
			t.Fatalf("file has %d records before compaction, want 10", got)
		}
		if d.Records() != 10 || d.Len() != 2 {
			t.Fatalf("records=%d len=%d", d.Records(), d.Len())
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := fileRecords(t, path); got != 2 {
			t.Fatalf("file has %d records after compaction, want 2", got)
		}
		if d.Records() != 2 || d.Len() != 2 {
			t.Fatalf("after compact: records=%d len=%d", d.Records(), d.Len())
		}
		// The store stays fully usable: reads see the latest values and
		// appends land in the renamed file.
		if res, ok, _ := d.Get(k1); !ok || res.Injections != 14 {
			t.Fatalf("k1 after compact: ok=%v res=%+v", ok, res)
		}
		k3 := CellSpec{Chip: "c", Benchmark: "b", Seed: 3}.Key()
		mustPut(t, d, k3, fakeResult(30))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen: all three cells must be there.
		d2 := mustOpenStore(t, path, format)
		defer d2.Close()
		for _, k := range []CellKey{k1, k2, k3} {
			if _, ok, _ := d2.Get(k); !ok {
				t.Fatalf("cell %s lost across compact+reopen", k)
			}
		}
		if res, ok, _ := d2.Get(k2); !ok || res.Injections != 24 {
			t.Fatalf("k2 value wrong after reopen: %+v", res)
		}
	})
}

// TestDiskStoreCompactIsByteStable: compaction emits sorted keys, so
// equal stores are byte-identical on disk whatever their history.
func TestDiskStoreCompactIsByteStable(t *testing.T) {
	eachFormat(t, func(t *testing.T, format, path string) {
		d := mustOpenStore(t, path, format)
		keys := make([]CellKey, 5)
		for i := range keys {
			keys[i] = CellSpec{Chip: "c", Benchmark: "b", Seed: uint64(i)}.Key()
		}
		// Puts in scrambled order with overwrites.
		for _, i := range []int{3, 1, 4, 0, 2, 1, 3} {
			mustPut(t, d, keys[i], fakeResult(10+i))
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if d.Records() != 5 || d.Len() != 5 {
			t.Fatalf("after compact: records=%d len=%d", d.Records(), d.Len())
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("repeated compaction changed the file bytes")
		}
		d.Close()

		// A sibling store built from the same cells compacts to the same
		// bytes regardless of insertion order.
		path2 := path + "2"
		d2 := mustOpenStore(t, path2, format)
		for _, i := range []int{0, 2, 4, 1, 3} {
			mustPut(t, d2, keys[i], fakeResult(10+i))
		}
		if err := d2.Compact(); err != nil {
			t.Fatal(err)
		}
		d2.Close()
		sibling, err := os.ReadFile(path2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, sibling) {
			t.Fatal("equal stores are not byte-identical after compaction")
		}
	})
}

func TestDiskStoreAutoCompactOnOpen(t *testing.T) {
	eachFormat(t, func(t *testing.T, format, path string) {
		d := mustOpenStore(t, path, format)
		key := CellSpec{Chip: "c", Benchmark: "b"}.Key()
		for i := 0; i <= CompactDeadThreshold+1; i++ {
			mustPut(t, d, key, fakeResult(i+1))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if before := fileRecords(t, path); before != CompactDeadThreshold+2 {
			t.Fatalf("setup wrote %d records", before)
		}
		// Open crosses the dead-record threshold and must compact.
		d2 := mustOpenStore(t, path, format)
		if got := fileRecords(t, path); got != 1 || d2.Records() != 1 || d2.Len() != 1 {
			t.Fatalf("auto-compaction left %d records in the file, records=%d len=%d, want 1/1/1", got, d2.Records(), d2.Len())
		}
		if res, ok, _ := d2.Get(key); !ok || res.Injections != CompactDeadThreshold+2 {
			t.Fatalf("latest value lost: ok=%v res=%+v", ok, res)
		}
		// Below the threshold, open must not rewrite the file.
		for i := 0; i < 3; i++ {
			mustPut(t, d2, key, fakeResult(50+i))
		}
		d2.Close()
		before := fileRecords(t, path)
		d3 := mustOpenStore(t, path, format)
		defer d3.Close()
		if got := fileRecords(t, path); got != before {
			t.Fatalf("open below threshold rewrote the file: %d -> %d records", before, got)
		}
	})
}

func TestOpenStoreRouting(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "cells.jsonl")
	binPath := filepath.Join(dir, "cells.store")
	key := CellSpec{Chip: "c", Benchmark: "b"}.Key()

	for _, tc := range []struct{ path, format string }{
		{jsonPath, FormatJSON},
		{binPath, FormatBinary},
	} {
		st := mustOpenStore(t, tc.path, tc.format)
		mustPut(t, st, key, fakeResult(9))
		st.Close()
	}

	// Auto sniffs each existing file back to its own codec; a fresh path
	// under auto defaults to JSON lines.
	for _, tc := range []struct{ path, format, want string }{
		{jsonPath, FormatAuto, FormatJSON},
		{binPath, "", FormatBinary},
		{filepath.Join(dir, "fresh"), FormatAuto, FormatJSON},
	} {
		st := mustOpenStore(t, tc.path, tc.format)
		if st.codec.format != tc.want {
			t.Fatalf("OpenStore(%s, %q) chose the %s codec, want %s", tc.path, tc.format, st.codec.format, tc.want)
		}
		st.Close()
	}

	// A format that contradicts the file on disk is an error, both ways.
	if _, err := OpenStore(jsonPath, FormatBinary); err == nil {
		t.Fatal("binary open of a JSON file should fail")
	}
	if _, err := OpenStore(binPath, FormatJSON); err == nil {
		t.Fatal("json open of a binary file should fail")
	}
	if _, err := OpenStore(binPath, "parquet"); err == nil {
		t.Fatal("unknown format should fail")
	}
}

// TestStoreGaugeParity proves the two disk formats publish identical
// fi_store_records_live/_dead accounting for identical histories, and
// that Close withdraws a store's contribution.
func TestStoreGaugeParity(t *testing.T) {
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()

	type delta struct{ live, dead int64 }
	got := map[string]delta{}
	eachFormat(t, func(t *testing.T, format, path string) {
		live0 := telemetry.StoreRecordsLive.Value()
		dead0 := telemetry.StoreRecordsDead.Value()
		st := mustOpenStore(t, path, format)
		// Identical history: two cells, one of them overwritten once.
		mustPut(t, st, k1, fakeResult(10))
		mustPut(t, st, k2, fakeResult(20))
		mustPut(t, st, k1, fakeResult(30))
		got[format] = delta{telemetry.StoreRecordsLive.Value() - live0, telemetry.StoreRecordsDead.Value() - dead0}
		st.Close()
		if l, dd := telemetry.StoreRecordsLive.Value()-live0, telemetry.StoreRecordsDead.Value()-dead0; l != 0 || dd != 0 {
			t.Fatalf("Close left live=%d dead=%d on the gauges", l, dd)
		}
	})
	if got[FormatJSON] != got[FormatBinary] {
		t.Fatalf("gauge accounting drifted between formats: %+v", got)
	}
	if j := got[FormatJSON]; j.live != 2 || j.dead != 1 {
		t.Fatalf("history published live=%d dead=%d, want 2/1", j.live, j.dead)
	}
}

// fixtureKey, fixtureBefore and fixtureAfter are the operations behind
// testdata/parent_*.store: the parent of the commit that introduced
// wire.Journal ran exactly these to write the files, and
// TestParentFilesByteIdentical replays them on top.
func fixtureKey(i int) CellKey { return CellSpec{Chip: "c", Benchmark: "b", Seed: uint64(i)}.Key() }

func fixtureBefore(t *testing.T, put func(CellKey, *finject.Result) error) {
	t.Helper()
	for _, p := range []struct {
		k   int
		res *finject.Result
	}{{3, detailResult(30)}, {1, fakeResult(10)}, {2, detailResult(20)}, {1, fakeResult(11)}} {
		if err := put(fixtureKey(p.k), p.res); err != nil {
			t.Fatal(err)
		}
	}
}

func fixtureAfter(t *testing.T, put func(CellKey, *finject.Result) error) {
	t.Helper()
	if err := put(fixtureKey(4), fakeResult(40)); err != nil {
		t.Fatal(err)
	}
}

// TestParentFilesByteIdentical pins the on-disk bytes in both
// directions. testdata/parent_<format>.store was written by the
// two pre-Journal disk store types running fixtureBefore, and
// .after.store by the same code after fixtureAfter + Compact. The file
// must open unmodified to the expected cells, a store built here by the
// same operations must equal it byte for byte, and so must the result of
// the append + compaction.
func TestParentFilesByteIdentical(t *testing.T) {
	eachFormat(t, func(t *testing.T, format, path string) {
		before, err := os.ReadFile(filepath.Join("testdata", "parent_"+format+".store"))
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(filepath.Join("testdata", "parent_"+format+".after.store"))
		if err != nil {
			t.Fatal(err)
		}

		fresh := mustOpenStore(t, path, format)
		fixtureBefore(t, fresh.Put)
		fresh.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
			t.Fatalf("the same puts write different bytes than the parent commit:\n got %q\nwant %q", got, before)
		}

		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		d := mustOpenStore(t, path, FormatAuto)
		defer d.Close()
		if d.codec.format != format || d.Len() != 3 || d.Records() != 4 {
			t.Fatalf("parent file opened as %s with len=%d records=%d, want %s 3/4", d.codec.format, d.Len(), d.Records(), format)
		}
		for k, want := range map[int]*finject.Result{1: fakeResult(11), 2: detailResult(20), 3: detailResult(30)} {
			if got, ok, _ := d.Get(fixtureKey(k)); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %d of the parent file: ok=%v got %+v want %+v", k, ok, got, want)
			}
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
			t.Fatal("opening the parent file modified it")
		}
		fixtureAfter(t, d.Put)
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, after) {
			t.Fatalf("append + compaction diverge from the parent commit:\n got %q\nwant %q", got, after)
		}
	})
}
