package wire

import "fmt"

// Ownership journal payloads. A FileOwner wire file is the shared
// ground truth through which a fleet of fiservers agrees on who owns
// the job store: an append-only sequence of RecOwner records, each one
// epoch transition. The protocol is deliberately primitive — there is
// no consensus round, only fencing: a server claims ownership by
// appending a claim record with an epoch strictly greater than every
// epoch in the file, proves liveness by appending heartbeat records
// under that epoch, and abdicates the moment it observes a higher
// epoch than its own (a peer decided it was dead and took over).
// Every writer goes through a Journal: records are CRC-framed and
// appended with one write(2) on an O_APPEND descriptor, so concurrent
// servers interleave whole records instead of overwriting each other
// (the claim tiebreak needs every claim to be in the file), and a torn
// tail from a SIGKILL mid-append is healed by the journal's truncation
// rule and never forges a claim.

// Owner event names. They are encoded as strings (not enum bytes) so
// fistore inspect output and future event kinds stay self-describing.
const (
	// OwnerClaim opens a new epoch: the appender asserts ownership.
	OwnerClaim = "claim"
	// OwnerBeat renews a live epoch's lease against takeover TTLs.
	OwnerBeat = "beat"
	// OwnerRelease closes an epoch voluntarily (clean shutdown), so a
	// standby may claim immediately instead of waiting out the TTL.
	OwnerRelease = "release"
)

// OwnerRecord is one ownership transition in a FileOwner journal.
type OwnerRecord struct {
	// Epoch is the fencing token. Claims must strictly exceed every
	// prior epoch; beats and releases carry the epoch they renew/close.
	Epoch uint64
	// Server identifies the appending fiserver (its -server-id).
	Server string
	// UnixMillis is the appender's wall clock at append time; standbys
	// compare it against their own clock to detect a stale owner.
	UnixMillis int64
	// Event is one of OwnerClaim, OwnerBeat, OwnerRelease.
	Event string
}

// OwnerFraming is the ownership journal's Journal framing.
var OwnerFraming = Frames(FileOwner, RecOwner)

// ReplayOwners decodes every record of an ownership journal image,
// read-only, and returns the offset just past the last whole record (a
// torn tail follows when good < len(data); the next writer heals it).
func ReplayOwners(data []byte) (recs []OwnerRecord, good int, err error) {
	good, err = Replay(data, OwnerFraming, func(rec Record) error {
		o, err := DecodeOwner(rec.Payload)
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", rec.Off, err)
		}
		recs = append(recs, o)
		return nil
	})
	return recs, good, err
}

// LatestOwner reduces a journal to its latest record of the highest
// epoch, the zero record (epoch 0) when there is none.
func LatestOwner(recs []OwnerRecord) OwnerRecord {
	var last OwnerRecord
	for _, rec := range recs {
		if rec.Epoch >= last.Epoch {
			last = rec
		}
	}
	return last
}

// EncodeOwner encodes the record as a RecOwner payload.
func EncodeOwner(rec OwnerRecord) []byte {
	w := NewWriter(nil)
	w.U64(rec.Epoch)
	w.String(rec.Server)
	w.I64(rec.UnixMillis)
	w.String(rec.Event)
	return w.Bytes()
}

// DecodeOwner decodes a RecOwner payload.
func DecodeOwner(payload []byte) (OwnerRecord, error) {
	r := NewReader(payload)
	rec := OwnerRecord{
		Epoch:      r.U64(),
		Server:     r.String(),
		UnixMillis: r.I64(),
		Event:      r.String(),
	}
	if err := r.Done(); err != nil {
		return OwnerRecord{}, fmt.Errorf("owner record: %w", err)
	}
	switch rec.Event {
	case OwnerClaim, OwnerBeat, OwnerRelease:
	default:
		return OwnerRecord{}, fmt.Errorf("%w: owner record: unknown event %q", ErrCorrupt, rec.Event)
	}
	return rec, nil
}
