package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/wire"
)

// testKey mints a syntactically plausible cell key.
func testKey(i byte) campaign.CellKey {
	return campaign.CellKey(strings.Repeat(string([]byte{'a' + i%16}), 64))
}

// testResult builds a distinguishable synthetic result; odd indices get
// per-injection detail records and indices divisible by three an
// AVF-ACE, so both optional parts round-trip in every combination.
func testResult(i int) *finject.Result {
	res := &finject.Result{
		Outcomes:   [gpu.NumOutcomes]int{50 + i, 10, 5, 2},
		Injections: 67 + i,
		GoldenStats: gpu.RunStats{
			Cycles: int64(10000 + i), Instructions: 5000, LaneInstructions: 120000, Launches: 2,
			RegOcc:   gpu.OccStats{AllocUnitCycles: 0.25 * float64(i+1)},
			LocalOcc: gpu.OccStats{AllocUnitCycles: 0.125},
		},
		Occupancy: 0.75,
	}
	if i%3 == 0 {
		avf := 0.125 * float64(i+1)
		res.AVFACE = &avf
	}
	if i%2 == 1 {
		res.Records = []finject.Record{
			{Fault: gpu.Fault{Structure: gpu.RegisterFile, Unit: i, Entry: 7, Bit: 3, Cycle: 42}, Outcome: gpu.OutcomeSDC, CorruptBytes: 8},
			{Fault: gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 1, Bit: 5, Width: 2, Cycle: 99}, Outcome: gpu.OutcomeMasked},
		}
	}
	return res
}

// seedStore populates a fresh store file in the given format.
func seedStore(t *testing.T, path, format string, n int) {
	t.Helper()
	st, err := campaign.OpenStore(path, format)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", format, err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(testKey(byte(i)), testResult(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestConvertJSONToBinaryAndBack(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "cells.jsonl")
	seedStore(t, src, campaign.FormatJSON, 5)

	bin := filepath.Join(dir, "cells.store")
	var out bytes.Buffer
	if err := run([]string{"convert", "-to", "binary", src, bin}, &out, &out); err != nil {
		t.Fatalf("convert to binary: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5 cells converted and verified") {
		t.Fatalf("convert output = %q", out.String())
	}

	back := filepath.Join(dir, "back.jsonl")
	out.Reset()
	if err := run([]string{"convert", "-to", "json", bin, back}, &out, &out); err != nil {
		t.Fatalf("convert back to json: %v\n%s", err, out.String())
	}

	// The full JSON -> binary -> JSON loop must preserve every record.
	a, err := campaign.OpenStore(src, campaign.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := campaign.OpenStore(back, campaign.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Len() != b.Len() {
		t.Fatalf("round trip lost cells: %d != %d", a.Len(), b.Len())
	}
	for _, k := range a.Keys() {
		x, _, _ := a.Get(k)
		y, ok, _ := b.Get(k)
		if !ok || !resultsEqual(x, y) {
			t.Fatalf("cell %s did not survive the round trip", k)
		}
	}
}

// TestResultsEqualComparesAVFACE: the verification a conversion ends
// with tells a dropped or changed AVF-ACE from a kept one.
func TestResultsEqualComparesAVFACE(t *testing.T) {
	with := testResult(0) // carries an AVF-ACE
	without, changed := *with, *with
	without.AVFACE = nil
	other := 0.25
	changed.AVFACE = &other
	if !resultsEqual(with, testResult(0)) || resultsEqual(with, &without) || resultsEqual(&without, with) || resultsEqual(with, &changed) {
		t.Fatal("resultsEqual ignores AVF-ACE")
	}
}

func TestConvertRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "cells.jsonl")
	seedStore(t, src, campaign.FormatJSON, 1)
	var out bytes.Buffer
	if err := run([]string{"convert", "-to", "binary", src, src}, &out, &out); err == nil {
		t.Fatal("convert over an existing file should fail")
	}

	// A source that does not exist is an error, and neither file appears.
	missing, dst := filepath.Join(dir, "nosuch.jsonl"), filepath.Join(dir, "out.store")
	if err := run([]string{"convert", "-to", "binary", missing, dst}, &out, &out); err == nil {
		t.Fatal("convert from a missing source should fail")
	}
	for _, p := range []string{missing, dst} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("convert from a missing source left %s behind (stat err %v)", p, err)
		}
	}
}

func TestInspectAndVerifyStores(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		format, file, want string
	}{
		{campaign.FormatJSON, "cells.jsonl", "JSON-lines store"},
		{campaign.FormatBinary, "cells.store", "wire v1 store file"},
	} {
		path := filepath.Join(dir, tc.file)
		seedStore(t, path, tc.format, 3)
		var out bytes.Buffer
		if err := run([]string{"inspect", path}, &out, &out); err != nil {
			t.Fatalf("inspect %s: %v", tc.format, err)
		}
		if !strings.Contains(out.String(), tc.want) || !strings.Contains(out.String(), "3 live") {
			t.Fatalf("inspect %s output = %q", tc.format, out.String())
		}
		out.Reset()
		if err := run([]string{"verify", path}, &out, &out); err != nil {
			t.Fatalf("verify %s: %v", tc.format, err)
		}
		if !strings.Contains(out.String(), "ok, 3 records") {
			t.Fatalf("verify %s output = %q", tc.format, out.String())
		}
	}

	// The ownership journal, ending in the torn record a SIGKILL
	// mid-append leaves.
	path := filepath.Join(dir, "ownership.fiwr")
	for _, rec := range []wire.OwnerRecord{
		{Epoch: 1, Server: "a", UnixMillis: 1000, Event: wire.OwnerClaim},
		{Epoch: 1, Server: "a", UnixMillis: 2000, Event: wire.OwnerRelease},
		{Epoch: 2, Server: "b", UnixMillis: 3000, Event: wire.OwnerClaim},
		{Epoch: 2, Server: "b", UnixMillis: 4000, Event: wire.OwnerBeat},
	} {
		if err := wire.AppendShared(path, wire.OwnerFraming, wire.EncodeOwner(rec)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(wire.AppendRecord(nil, wire.RecOwner, wire.EncodeOwner(wire.OwnerRecord{Epoch: 3, Server: "c", Event: wire.OwnerClaim}))[:9])
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"inspect", path}, &out, &out); err != nil {
		t.Fatalf("inspect ownership: %v", err)
	}
	for _, want := range []string{"wire v1 ownership file", "records   4", "epoch     2, server b, last event beat", "torn tail of 9 bytes"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("inspect ownership output lacks %q: %q", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"verify", path}, &out, &out); err != nil {
		t.Fatalf("verify ownership: %v", err)
	}
	if !strings.Contains(out.String(), "ok, 4 records (torn tail of 9 bytes") {
		t.Fatalf("verify ownership output = %q", out.String())
	}
	// verify decodes every record: a CRC-valid frame that is no owner
	// record is an error.
	bad := wire.AppendRecord(wire.AppendHeader(nil, wire.FileOwner), wire.RecOwner, []byte("not an owner record"))
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"verify", path}, &out, &out); err == nil {
		t.Fatal("verify accepted an undecodable owner record")
	}

	// A leftover checkpoint-ladder file (wire file kind 2, retired) is no
	// store: inspect and verify both fail on it.
	ladder := filepath.Join(dir, "Mini_NVIDIA__matrixMul__0.ladder")
	if err := os.WriteFile(ladder, wire.AppendRecord(wire.AppendHeader(nil, wire.FileKind(2)), wire.RecordKind(4), []byte("ladder-info")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"inspect", "verify"} {
		out.Reset()
		if err := run([]string{verb, ladder}, &out, &out); err == nil {
			t.Fatalf("%s accepted a ladder file: %q", verb, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"inspect"},
		{"convert", "-to", "yaml", "a", "b"},
	} {
		if err := run(args, &out, &out); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}
