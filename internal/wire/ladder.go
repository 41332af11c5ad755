package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/gpu"
	"repro/internal/telemetry"
)

// Ladder files: one golden run's checkpoint ladder, serialized once and
// mmap'd read-only by every consumer. Layout after the file header:
//
//	RecLadderInfo   chip, benchmark, interval, rung count
//	RecPage...      each distinct 4 KiB memory page, once, under its
//	                sha256 (index = order of appearance)
//	RecSnapshot...  per rung: cycle, memory watermarks, page indices,
//	                opaque device meta blob
//
// Pages are content-addressed at write time, so rungs that share COW
// pages in heap share the same page records on disk; all-zero pages
// decode to the canonical gpu.ZeroPage so restores keep their
// identity-match fast path. Loaded snapshot images alias the mapping
// directly (gpu.NewMappedImage) — nothing is copied, and the mapping
// lives for the remainder of the process (see mappings below), which is
// the safety rule that makes aliasing sound: snapshots never outlive
// their pages.

// LadderInfo identifies which golden run a ladder file belongs to.
// Loading fails unless it matches the request exactly: a ladder is only
// valid for the deterministic golden execution of its own
// (chip, benchmark) pair at its own checkpoint interval.
type LadderInfo struct {
	Chip      string
	Benchmark string
	// Interval is the configured checkpoint interval (0 = auto-sized).
	Interval int64
}

// pageHashSize is the content-hash width stored with each page.
const pageHashSize = sha256.Size

// WriteLadder serializes a checkpoint ladder to path atomically
// (ReplaceFile), so concurrent writers racing on the same path leave one
// complete file (their contents are identical anyway — golden runs are
// deterministic). codec must be a device of the ladder's own chip
// configuration.
func WriteLadder(path string, info LadderInfo, codec gpu.SnapshotCodec, snaps []gpu.Snapshot) error {
	buf := AppendHeader(nil, FileLadder)

	var w Writer
	w.String(info.Chip)
	w.String(info.Benchmark)
	w.I64(info.Interval)
	w.U32(uint32(len(snaps)))
	buf = AppendRecord(buf, RecLadderInfo, w.Bytes())

	// Content-addressed page pool: first reference writes the page and
	// assigns the next index, later references reuse it.
	pageIdx := make(map[[pageHashSize]byte]uint32)
	var stored, deduped int64
	for _, s := range snaps {
		mem, meta, err := codec.MarshalSnapshot(s)
		if err != nil {
			return fmt.Errorf("wire: ladder %s: %w", path, err)
		}
		np := mem.NumPages()
		refs := make([]uint32, np)
		for p := 0; p < np; p++ {
			pg := mem.Page(p)
			if len(pg) != gpu.PageSize {
				return fmt.Errorf("wire: ladder %s: page %d is %d bytes", path, p, len(pg))
			}
			h := sha256.Sum256(pg)
			idx, ok := pageIdx[h]
			if !ok {
				idx = uint32(len(pageIdx))
				pageIdx[h] = idx
				rec := make([]byte, 0, pageHashSize+gpu.PageSize)
				rec = append(rec, h[:]...)
				rec = append(rec, pg...)
				buf = AppendRecord(buf, RecPage, rec)
				stored++
			} else {
				deduped++
			}
			refs[p] = idx
		}
		brk, hwm := mem.Watermarks()
		sw := Writer{}
		sw.I64(s.Cycle())
		sw.U32(brk)
		sw.U32(hwm)
		sw.U32s(refs)
		sw.Blob(meta)
		buf = AppendRecord(buf, RecSnapshot, sw.Bytes())
	}

	if err := ReplaceFile(path, buf); err != nil {
		return fmt.Errorf("wire: ladder %s: %w", path, err)
	}
	telemetry.WireBytesWritten.Add(int64(len(buf)))
	telemetry.WirePagesStored.Add(stored)
	telemetry.WirePagesDeduped.Add(deduped)
	telemetry.WireLadderSaves.Inc()
	return nil
}

// mappings is the process-wide ladder mapping cache: each ladder file
// is mapped at most once per process, every loader aliases the same
// mapping, and mappings live until process exit — the lifetime rule
// that lets snapshot images reference mapped pages without reference
// counting. The fi_wire_ladder_mmap_bytes gauge therefore reports each
// file's bytes exactly once per process no matter how many goldens,
// workers or campaigns share it.
var mappings struct {
	sync.Mutex
	byPath map[string][]byte
}

// mappedFile returns the shared read-only mapping of path.
func mappedFile(path string) ([]byte, error) {
	mappings.Lock()
	defer mappings.Unlock()
	if data, ok := mappings.byPath[path]; ok {
		return data, nil
	}
	data, _, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if mappings.byPath == nil {
		mappings.byPath = make(map[string][]byte)
	}
	mappings.byPath[path] = data
	telemetry.WireLadderMmapBytes.Add(int64(len(data)))
	return data, nil
}

// MmapSupported reports whether ladder files are shared by true
// read-only memory mapping on this platform (false means the copying
// fallback: correct, but one heap copy per process).
func MmapSupported() bool { return mmapSupported }

// OpenLadder loads the ladder at path, validating that it matches want,
// and rebuilds its snapshots through codec. Snapshot memory pages alias
// the shared read-only mapping — zero copies, zero heap, one physical
// ladder per host across any number of processes.
func OpenLadder(path string, want LadderInfo, codec gpu.SnapshotCodec) ([]gpu.Snapshot, error) {
	data, err := mappedFile(path)
	if err != nil {
		return nil, err
	}
	kind, _, err := ParseHeader(data)
	if err != nil {
		return nil, fmt.Errorf("wire: ladder %s: %w", path, err)
	}
	if kind != FileLadder {
		return nil, fmt.Errorf("%w: %s is a %s file, not a ladder", ErrCorrupt, path, kind)
	}

	var (
		info     *LadderInfo
		declared uint32
		pages    [][]byte
		snaps    []gpu.Snapshot
	)
	good, err := ScanRecords(data, func(rec Record) error {
		switch rec.Kind {
		case RecLadderInfo:
			r := NewReader(rec.Payload)
			info = &LadderInfo{Chip: r.String(), Benchmark: r.String(), Interval: r.I64()}
			declared = r.U32()
			if err := r.Done(); err != nil {
				return err
			}
			if *info != want {
				return fmt.Errorf("%w: ladder %s is for %s/%s interval %d, want %s/%s interval %d",
					ErrCorrupt, path, info.Chip, info.Benchmark, info.Interval,
					want.Chip, want.Benchmark, want.Interval)
			}
		case RecPage:
			if len(rec.Payload) != pageHashSize+gpu.PageSize {
				return fmt.Errorf("%w: page record of %d bytes", ErrCorrupt, len(rec.Payload))
			}
			pg := rec.Payload[pageHashSize:]
			if allZero(pg) {
				// Preserve the canonical zero-page identity so restores
				// skip zero pages by pointer match, exactly as with an
				// in-heap ladder.
				pg = gpu.ZeroPage()
			}
			pages = append(pages, pg)
		case RecSnapshot:
			r := NewReader(rec.Payload)
			cycle := r.I64()
			brk, hwm := r.U32(), r.U32()
			refs := r.U32s()
			meta := r.Blob()
			if err := r.Done(); err != nil {
				return err
			}
			imgPages := make([][]byte, len(refs))
			for i, idx := range refs {
				if int(idx) >= len(pages) {
					return fmt.Errorf("%w: snapshot references page %d of %d", ErrCorrupt, idx, len(pages))
				}
				imgPages[i] = pages[idx]
			}
			mem, err := gpu.NewMappedImage(imgPages, brk, hwm)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			snap, err := codec.UnmarshalSnapshot(mem, meta)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if snap.Cycle() != cycle {
				return fmt.Errorf("%w: snapshot meta cycle %d disagrees with record cycle %d", ErrCorrupt, snap.Cycle(), cycle)
			}
			snaps = append(snaps, snap)
		default:
			// Unknown kinds are forward-compatible additions: skip.
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire: ladder %s: %w", path, err)
	}
	if good != len(data) {
		// Ladders are written atomically; a short tail is corruption
		// here, not an append crash.
		return nil, fmt.Errorf("wire: ladder %s: %w after offset %d", path, ErrTorn, good)
	}
	if info == nil {
		return nil, fmt.Errorf("wire: ladder %s: %w: missing ladder-info record", path, ErrCorrupt)
	}
	if int(declared) != len(snaps) {
		return nil, fmt.Errorf("wire: ladder %s: %w: %d snapshots declared, %d present", path, ErrCorrupt, declared, len(snaps))
	}
	return snaps, nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for len(b) >= 8 {
		if b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// VerifyLadder fully checks a ladder file: framing, CRCs, page content
// hashes and snapshot page references. It does not need a device codec
// (meta blobs stay opaque); fistore verify uses it.
func VerifyLadder(data []byte) (pages, snapshots int, err error) {
	kind, _, err := ParseHeader(data)
	if err != nil {
		return 0, 0, err
	}
	if kind != FileLadder {
		return 0, 0, fmt.Errorf("%w: not a ladder file", ErrCorrupt)
	}
	good, err := ScanRecords(data, func(rec Record) error {
		switch rec.Kind {
		case RecPage:
			if len(rec.Payload) != pageHashSize+gpu.PageSize {
				return fmt.Errorf("%w: page record of %d bytes", ErrCorrupt, len(rec.Payload))
			}
			want := rec.Payload[:pageHashSize]
			got := sha256.Sum256(rec.Payload[pageHashSize:])
			if !bytes.Equal(got[:], want) {
				return fmt.Errorf("%w: page %d content hash mismatch", ErrCorrupt, pages)
			}
			pages++
		case RecSnapshot:
			r := NewReader(rec.Payload)
			r.I64()
			r.U32()
			r.U32()
			refs := r.U32s()
			r.Blob()
			if err := r.Done(); err != nil {
				return err
			}
			for _, idx := range refs {
				if int(idx) >= pages {
					return fmt.Errorf("%w: snapshot %d references page %d of %d", ErrCorrupt, snapshots, idx, pages)
				}
			}
			snapshots++
		}
		return nil
	})
	if err != nil {
		return pages, snapshots, err
	}
	if good != len(data) {
		return pages, snapshots, fmt.Errorf("%w after offset %d", ErrTorn, good)
	}
	return pages, snapshots, nil
}
