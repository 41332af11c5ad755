package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, kind := range []FileKind{FileStore, FileOwner} {
		b := AppendHeader(nil, kind)
		if len(b) != HeaderSize {
			t.Fatalf("header is %d bytes, want %d", len(b), HeaderSize)
		}
		got, off, err := ParseHeader(b)
		if err != nil || got != kind || off != HeaderSize {
			t.Fatalf("ParseHeader(%s) = %v, %d, %v", kind, got, off, err)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := AppendHeader(nil, FileStore)

	if _, _, err := ParseHeader([]byte("JSON")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("non-magic bytes: err = %v, want ErrBadMagic", err)
	}
	if _, _, err := ParseHeader(good[:HeaderSize-1]); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short header: err = %v, want ErrBadMagic", err)
	}

	future := append([]byte(nil), good...)
	future[4] = Version + 1
	if _, _, err := ParseHeader(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}

	// 2 is the retired ladder file's kind.
	for _, kind := range []byte{2, 99} {
		alien := append([]byte(nil), good...)
		alien[5] = kind
		if _, _, err := ParseHeader(alien); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("file kind %d: err = %v, want ErrCorrupt", kind, err)
		}
	}

	if IsWireFile([]byte(`{"key":"x"}`)) || !IsWireFile(good) {
		t.Fatal("IsWireFile misroutes")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	b := AppendHeader(nil, FileStore)
	for i, p := range payloads {
		b = AppendRecord(b, RecordKind(i+1), p)
	}

	off := HeaderSize
	for i, p := range payloads {
		rec, next, err := NextRecord(b, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind != RecordKind(i+1) || !bytes.Equal(rec.Payload, p) || rec.Off != off {
			t.Fatalf("record %d decoded as %+v", i, rec)
		}
		off = next
	}
	rec, next, err := NextRecord(b, off)
	if err != nil || rec.Kind != 0 || next != off {
		t.Fatalf("end of buffer: rec=%+v next=%d err=%v", rec, next, err)
	}
}

// TestTornVersusCorrupt pins the crash-recovery contract: any truncation
// of the final record is a torn append (healable), while a bit flip in a
// complete record is corruption (hard error).
func TestTornVersusCorrupt(t *testing.T) {
	b := AppendHeader(nil, FileStore)
	b = AppendRecord(b, RecCell, []byte("first"))
	goodEnd := len(b)
	b = AppendRecord(b, RecCell, []byte("second-record"))

	// Every possible torn tail of the second record scans back to the
	// end of the first.
	for cut := goodEnd + 1; cut < len(b); cut++ {
		var n int
		good, err := ScanRecords(b[:cut], func(Record) error { n++; return nil })
		if err != nil || good != goodEnd || n != 1 {
			t.Fatalf("cut at %d: good=%d n=%d err=%v, want good=%d n=1", cut, good, n, err, goodEnd)
		}
		if _, _, err := NextRecord(b[:cut], goodEnd); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: NextRecord err = %v, want ErrTorn", cut, err)
		}
	}

	// A flipped payload byte in a fully present record is corruption.
	corrupt := append([]byte(nil), b...)
	corrupt[goodEnd+6] ^= 0x01
	if _, err := ScanRecords(corrupt, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
}

func TestScanRecordsStopsOnCallbackError(t *testing.T) {
	b := AppendHeader(nil, FileStore)
	b = AppendRecord(b, RecCell, []byte("x"))
	b = AppendRecord(b, RecCell, []byte("y"))
	boom := errors.New("boom")
	n := 0
	if _, err := ScanRecords(b, func(Record) error { n++; return boom }); !errors.Is(err, boom) || n != 1 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.F64(math.NaN())
	w.String("chip/bench")
	w.String("")

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Fatalf("U64 = %x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsNaN(v) {
		t.Fatalf("F64 NaN = %v", v)
	}
	if v := r.String(); v != "chip/bench" {
		t.Fatalf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty String = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	var w Writer
	w.U32(7)
	r := NewReader(w.Bytes())
	r.U64() // short read: poisons
	if r.Err() == nil {
		t.Fatal("short read did not poison the reader")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("poisoned read returned %d, want zero value", v)
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done after poison = %v", err)
	}

	// Unconsumed trailing bytes are an error too.
	r2 := NewReader(w.Bytes())
	if err := r2.Done(); err == nil {
		t.Fatal("Done with trailing bytes should fail")
	}
}

// TestSliceLenBounds pins the anti-allocation guard: a declared length
// beyond the remaining bytes must fail without allocating.
func TestSliceLenBounds(t *testing.T) {
	var w Writer
	w.U32(math.MaxUint32) // declares 4 billion bytes, provides none
	r := NewReader(w.Bytes())
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("implausible string length was accepted")
	}
}
