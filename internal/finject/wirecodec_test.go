package finject

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// TestResultCodecAVFACE: a result's AVF-ACE is 8 bytes after its detail
// records, present only when set, so a result without it encodes as one
// from before the field; any other remainder is corruption.
func TestResultCodecAVFACE(t *testing.T) {
	avf := 0.4375
	base := Result{
		Outcomes:    [gpu.NumOutcomes]int{7, 2, 1, 0},
		Injections:  10,
		GoldenStats: gpu.RunStats{Cycles: 1234, Instructions: 99, Launches: 2},
		Occupancy:   0.25,
		Records:     []Record{{Fault: gpu.Fault{Unit: 1, Entry: 2, Bit: 3, Cycle: 4}, Outcome: gpu.OutcomeSDC, CorruptBytes: 4}},
	}
	encode := func(res Result) []byte {
		var w wire.Writer
		EncodeResult(&w, &res)
		return w.Bytes()
	}
	without := encode(base)
	withACE := base
	withACE.AVFACE = &avf
	with := encode(withACE)
	if len(with) != len(without)+8 || string(with[:len(without)]) != string(without) {
		t.Fatalf("AVF-ACE is not 8 bytes appended: %d bytes without, %d with", len(without), len(with))
	}
	for _, tc := range []struct {
		name string
		data []byte
		want *float64
	}{
		{"no remainder", without, nil},
		{"8-byte remainder", with, &avf},
	} {
		got, err := DecodeResult(wire.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := base
		want.AVFACE = tc.want
		if err := equalResults(&want, got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	for _, cut := range []int{1, 4, 7, 9} {
		data := append(append([]byte(nil), without...), make([]byte, cut)...)
		if _, err := DecodeResult(wire.NewReader(data)); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%d-byte remainder: got %v, want wire.ErrCorrupt", cut, err)
		}
	}
}

// TestEqualResultsComparesAVFACE: the equivalence proofs tell a missing
// AVF-ACE and a different one from an equal one.
func TestEqualResultsComparesAVFACE(t *testing.T) {
	a, b := 0.5, 0.25
	for _, tc := range []struct {
		ref, got *float64
		differ   bool
	}{
		{nil, nil, false},
		{&a, &a, false},
		{&a, nil, true},
		{nil, &a, true},
		{&a, &b, true},
	} {
		err := equalResults(&Result{AVFACE: tc.ref}, &Result{AVFACE: tc.got})
		if tc.differ != (err != nil) || err != nil && !strings.Contains(err.Error(), "AVF-ACE differs") {
			t.Errorf("%s against %s: %v", avfText(tc.ref), avfText(tc.got), err)
		}
	}
}
