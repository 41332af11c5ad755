package wire

import (
	"errors"
	"math"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to every wire decoder. The
// contract under test: decoders never panic and never allocate beyond
// the input size — they either decode or return a typed error.
func FuzzWireDecode(f *testing.F) {
	// Seed with real encodings so the fuzzer starts past the magic check.
	store := AppendHeader(nil, FileStore)
	var w Writer
	w.String("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	w.Int(42)
	store = AppendRecord(store, RecCell, w.Bytes())
	f.Add(store)
	// A cell record in finject's result layout — four outcome counts,
	// the injections, four run statistics, three occupancy floats and no
	// detail records — ending in the optional 8-byte AVF-ACE.
	w = Writer{}
	w.String("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210")
	for _, n := range []int{30, 6, 3, 1, 40, 12345, 678, 21696, 2} {
		w.Int(n)
	}
	for _, v := range []float64{1e6, 2e5, 0.4375} {
		w.F64(v)
	}
	w.U32(0)
	w.F64(0.125)
	f.Add(AppendRecord(AppendHeader(nil, FileStore), RecCell, w.Bytes()))
	owner := AppendHeader(nil, FileOwner)
	owner = AppendRecord(owner, RecOwner, EncodeOwner(OwnerRecord{Epoch: 1, Server: "seed", UnixMillis: 1700000000000, Event: OwnerClaim}))
	f.Add(owner)
	f.Add([]byte(Magic))
	f.Add([]byte(`{"key":"a","result":{}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		good, err := ScanRecords(data, func(rec Record) error {
			// Exercise the payload readers the way real decoders do.
			r := NewReader(rec.Payload)
			_ = r.String()
			r.I64()
			return nil
		})
		if err == nil && (good < 0 || good > len(data)) {
			t.Fatalf("ScanRecords returned offset %d for %d bytes", good, len(data))
		}
		if err != nil && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ScanRecords returned an untyped error: %v", err)
		}

		// Every clustered fiserver decodes the shared ownership journal.
		owners, good, err := ReplayOwners(data)
		if err == nil && (good < 0 || good > len(data)) {
			t.Fatalf("ReplayOwners returned offset %d for %d bytes", good, len(data))
		}
		for _, o := range owners {
			if back, err := DecodeOwner(EncodeOwner(o)); err != nil || back != o {
				t.Fatalf("decoded owner record %+v does not round-trip: %+v, %v", o, back, err)
			}
		}

		r := NewReader(data)
		r.U8()
		r.Bool()
		r.U32()
		r.U64()
		r.I64()
		r.F64()
		_ = r.String()
		_ = r.Done()
	})
}

// FuzzWireRoundTrip proves Writer/Reader are exact inverses for every
// primitive, including NaN floats and empty strings. The []byte argument
// round-trips as a String, so arbitrary bytes cross the codec.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(1), true, uint32(2), uint64(3), int64(-4), 5.5, []byte("blob"), "string")
	f.Add(uint8(0), false, uint32(math.MaxUint32), uint64(math.MaxUint64), int64(math.MinInt64), math.Inf(-1), []byte{}, "")
	f.Fuzz(func(t *testing.T, u8 uint8, b bool, u32 uint32, u64 uint64, i64 int64, f64 float64, blob []byte, s string) {
		var w Writer
		w.U8(u8)
		w.Bool(b)
		w.U32(u32)
		w.U64(u64)
		w.I64(i64)
		w.F64(f64)
		w.String(string(blob))
		w.String(s)

		r := NewReader(w.Bytes())
		if got := r.U8(); got != u8 {
			t.Fatalf("U8 = %d, want %d", got, u8)
		}
		if got := r.Bool(); got != b {
			t.Fatalf("Bool = %v, want %v", got, b)
		}
		if got := r.U32(); got != u32 {
			t.Fatalf("U32 = %d, want %d", got, u32)
		}
		if got := r.U64(); got != u64 {
			t.Fatalf("U64 = %d, want %d", got, u64)
		}
		if got := r.I64(); got != i64 {
			t.Fatalf("I64 = %d, want %d", got, i64)
		}
		if got := r.F64(); math.Float64bits(got) != math.Float64bits(f64) {
			t.Fatalf("F64 = %v, want %v", got, f64)
		}
		if got := r.String(); got != string(blob) {
			t.Fatalf("String = %q, want %q", got, blob)
		}
		if got := r.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("Done: %v", err)
		}
	})
}
