package wire

import (
	"errors"
	"testing"
)

func TestOwnerRecordRoundTrip(t *testing.T) {
	recs := []OwnerRecord{
		{Epoch: 1, Server: "fiserver-a", UnixMillis: 1700000000000, Event: OwnerClaim},
		{Epoch: 1, Server: "fiserver-a", UnixMillis: 1700000000250, Event: OwnerBeat},
		{Epoch: 2, Server: "fiserver-b", UnixMillis: 1700000009000, Event: OwnerClaim},
		{Epoch: 2, Server: "fiserver-b", UnixMillis: 1700000010000, Event: OwnerRelease},
	}
	for _, want := range recs {
		got, err := DecodeOwner(EncodeOwner(want))
		if err != nil {
			t.Fatalf("DecodeOwner(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestOwnerRecordRejectsBadPayloads(t *testing.T) {
	good := EncodeOwner(OwnerRecord{Epoch: 3, Server: "s", UnixMillis: 42, Event: OwnerBeat})

	if _, err := DecodeOwner(good[:len(good)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeOwner(append(append([]byte(nil), good...), 0xFF)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
	bogus := EncodeOwner(OwnerRecord{Epoch: 3, Server: "s", UnixMillis: 42, Event: "usurp"})
	if _, err := DecodeOwner(bogus); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown event: got %v, want ErrCorrupt", err)
	}
}
