// Package wire is the on-disk layer of the fleet: the versioned binary
// format shared by the campaign result store (campaign.DiskStore's
// binary codec), the control plane's ownership journal and the fistore
// inspection CLI, plus Journal, the one append-only-file implementation
// under every log the fleet keeps (binary or JSON lines), and the
// Writer/Reader primitives the snapshot meta codec (gpu.SnapshotCodec)
// encodes with. A wire file is
//
//	[magic "FIWR"][version u8][file kind u8][reserved u16]
//	[record]...
//
// and every record is length-prefixed and checksummed:
//
//	[kind u8][payload length u32][payload][crc32(kind || payload) u32]
//
// Two payload families exist: campaign cell records (a campaign.CellKey
// plus its finject.Result, encoded by internal/campaign) and ownership
// transitions. Checkpoint ladders are never written: each golden run
// captures its own in the heap.
//
// Torn tails versus corruption follow the Journal's rule: a record
// whose declared extent runs past the end of the file is the signature
// of a process killed mid-append and is truncated away by appenders; a
// record that is wholly present but fails its CRC or decode is
// corruption and is an error. Version bumps are explicit: a reader
// rejects files whose version it does not know (no silent best-effort
// parsing), and compatible additions arrive as new record kinds, which
// readers must skip when unknown.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies every wire-format file; campaign.OpenStore selects
// the binary store by sniffing it, so JSON-lines stores (which can
// never start with these bytes) keep working unchanged.
const Magic = "FIWR"

// Version is the current format version. Readers reject other versions.
const Version = 1

// HeaderSize is the fixed byte length of the file header.
const HeaderSize = 8

// FileKind distinguishes the wire file layouts.
type FileKind uint8

// The defined file kinds. Kind 2 was the retired checkpoint-ladder file:
// it is never reused, and a file of that kind fails ParseHeader.
const (
	// FileStore is an appendable campaign cell-result store.
	FileStore FileKind = 1
	// FileOwner is the control-plane ownership journal: an append-only
	// sequence of epoch claim/heartbeat/release records through which a
	// fleet of fiservers agrees on which one owns the shared job store.
	FileOwner FileKind = 3
)

// String names the file kind for inspect output.
func (k FileKind) String() string {
	switch k {
	case FileStore:
		return "store"
	case FileOwner:
		return "ownership"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RecordKind tags one record's payload family.
type RecordKind uint8

// The defined record kinds. Kinds 2–4 were the retired ladder file's
// page, snapshot and ladder-info records; they are never reused.
const (
	// RecCell is one campaign cell result (key + finject.Result).
	RecCell RecordKind = 1
	// RecOwner is one control-plane ownership transition (see
	// ownership.go): an epoch claim, a heartbeat under an epoch, or a
	// voluntary release.
	RecOwner RecordKind = 5
)

// String names the record kind for inspect output.
func (k RecordKind) String() string {
	switch k {
	case RecCell:
		return "cell"
	case RecOwner:
		return "owner"
	default:
		return fmt.Sprintf("record(%d)", uint8(k))
	}
}

// Typed decode failures. ErrTorn marks an incomplete final record (the
// crash-append signature appenders heal by truncation); everything else
// wraps ErrCorrupt and is a hard error.
var (
	// ErrBadMagic reports a file that is not wire-format at all.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports a wire file from an unknown format version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrCorrupt reports a structurally invalid file or record.
	ErrCorrupt = errors.New("wire: corrupt data")
	// ErrTorn reports an incomplete final record (torn append).
	ErrTorn = errors.New("wire: torn final record")
)

// recordOverhead is the per-record framing cost: kind + length + CRC.
const recordOverhead = 1 + 4 + 4

// crcTable is the standard IEEE polynomial, matching cksum/zlib.
var crcTable = crc32.IEEETable

// AppendHeader appends a file header for the given kind.
func AppendHeader(b []byte, kind FileKind) []byte {
	b = append(b, Magic...)
	b = append(b, Version, uint8(kind), 0, 0)
	return b
}

// ParseHeader validates a file header and returns the kind plus the
// offset of the first record.
func ParseHeader(b []byte) (FileKind, int, error) {
	if len(b) < HeaderSize || string(b[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if b[4] != Version {
		return 0, 0, fmt.Errorf("%w: %d (reader speaks %d)", ErrVersion, b[4], Version)
	}
	kind := FileKind(b[5])
	if kind != FileStore && kind != FileOwner {
		return 0, 0, fmt.Errorf("%w: unknown file kind %d", ErrCorrupt, b[5])
	}
	return kind, HeaderSize, nil
}

// IsWireFile reports whether b begins with the wire magic — the sniff
// campaign.OpenStore uses to route between store implementations.
func IsWireFile(b []byte) bool {
	return len(b) >= len(Magic) && string(b[:len(Magic)]) == Magic
}

// AppendRecord frames one record onto b. The write is buffer-only;
// callers that need crash atomicity must hand the full record to a
// single write(2).
func AppendRecord(b []byte, kind RecordKind, payload []byte) []byte {
	b = append(b, uint8(kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	crc := crc32.Update(crc32.Checksum([]byte{uint8(kind)}, crcTable), crcTable, payload)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// Record is one decoded record frame. Payload aliases the scanned
// buffer, so callers must copy anything they retain unless the buffer
// is immutable and long-lived.
type Record struct {
	Kind    RecordKind
	Payload []byte
	// Off is the record's byte offset in the scanned buffer — the
	// truncation point when a torn tail follows a good prefix.
	Off int
}

// NextRecord decodes the record starting at off. It returns the record
// and the offset of the next one. At the exact end of the buffer it
// returns (Record{}, off, nil) with Kind 0; callers detect completion
// via done := next == len(b) style checks, or use the returned record's
// Kind == 0 sentinel. An incomplete final record returns ErrTorn; a
// complete record with a bad CRC returns an ErrCorrupt-wrapping error.
func NextRecord(b []byte, off int) (Record, int, error) {
	if off == len(b) {
		return Record{}, off, nil
	}
	if off > len(b) || off < 0 {
		return Record{}, off, fmt.Errorf("%w: scan offset %d beyond %d bytes", ErrCorrupt, off, len(b))
	}
	if len(b)-off < recordOverhead {
		return Record{}, off, ErrTorn
	}
	kind := RecordKind(b[off])
	plen := int(binary.LittleEndian.Uint32(b[off+1 : off+5]))
	if plen < 0 || plen > len(b)-off-recordOverhead {
		// The declared payload runs past the end of the file: a torn
		// append (the length prefix landed, the payload did not).
		return Record{}, off, ErrTorn
	}
	payload := b[off+5 : off+5+plen]
	want := binary.LittleEndian.Uint32(b[off+5+plen : off+recordOverhead+plen])
	got := crc32.Update(crc32.Checksum(b[off:off+1], crcTable), crcTable, payload)
	if got != want {
		return Record{}, off, fmt.Errorf("%w: record at offset %d: crc mismatch (got %08x want %08x)", ErrCorrupt, off, got, want)
	}
	return Record{Kind: kind, Payload: payload, Off: off}, off + recordOverhead + plen, nil
}

// ScanRecords walks every record of a wire file body, invoking fn per
// record, and returns the byte offset just past the last good record.
// A torn final record stops the scan cleanly (the returned offset is
// the truncation point); corruption anywhere is an error. fn may stop
// the scan early by returning an error.
func ScanRecords(b []byte, fn func(Record) error) (good int, err error) {
	kind, off, err := ParseHeader(b)
	if err != nil {
		return 0, err
	}
	_ = kind
	for {
		rec, next, err := NextRecord(b, off)
		if errors.Is(err, ErrTorn) {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		if next == off { // clean end of buffer
			return off, nil
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off = next
	}
}
