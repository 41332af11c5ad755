package wire

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

// Journal is the one implementation of an append-only record file. The
// result stores, the job journal and the ownership journal all sit on
// it; it knows how records are delimited (its Framing) and nothing about
// what they hold.
//
// Torn versus corrupt. Every append is one write(2) of one whole record,
// so a crash leaves the record wholly present or cut short at the end of
// the file — never damaged in the middle. An incomplete final record is
// therefore the signature of a process killed mid-append: OpenJournal
// truncates it away and the next append lands on a clean boundary. A
// record that is wholly present but does not decode (bad CRC, replay
// callback error) cannot come from a crash; it is corruption, it is an
// error, and the file is left untouched.
//
// The descriptor is opened O_APPEND, so the kernel places every write at
// the current end of file: several journals appending to one file
// interleave whole records and never overwrite each other. Healing is
// the one step that is not safe beside a live appender — a reader can
// see a peer's write(2) half done (the file size grows page by page) and
// would truncate a record that is about to be whole — so a file that
// several processes write (the ownership journal) is appended to through
// AppendShared, which serializes open + heal + append under a file lock.
// A Journal value itself is not safe for concurrent use; callers
// serialize on their own mutex.
type Journal struct {
	path    string
	f       *os.File
	framing Framing
	fsync   bool
	healed  int
	buf     []byte // framed-record scratch, reused across appends
}

// Framing is how a journal delimits its records: newline-terminated
// lines (Lines), or CRC frames of one record kind behind the 8-byte wire
// header (Frames).
type Framing struct {
	file FileKind // 0 selects line framing
	rec  RecordKind
}

// Lines frames each record as one newline-terminated line; payloads must
// not contain a newline (JSON encodings never do).
var Lines = Framing{}

// Frames frames each record as a length-prefixed, CRC-protected wire
// record of kind rec in a file of kind file. Records of any other kind
// are forward-compatible additions and are skipped on replay.
func Frames(file FileKind, rec RecordKind) Framing { return Framing{file: file, rec: rec} }

// frame appends the framed form of payload to b.
func (fr Framing) frame(b, payload []byte) []byte {
	if fr.file == 0 {
		return append(append(b, payload...), '\n')
	}
	return AppendRecord(b, fr.rec, payload)
}

// header returns the bytes every file of this framing starts with.
func (fr Framing) header() []byte {
	if fr.file == 0 {
		return nil
	}
	return AppendHeader(nil, fr.file)
}

// count adds n written bytes to fi_wire_bytes_written_total, which
// covers binary wire-format files only.
func (fr Framing) count(n int) {
	if fr.file != 0 {
		telemetry.WireBytesWritten.Add(int64(n))
	}
}

// Replay walks the records of a journal image read-only, calling fn with
// each one (Payload aliases data; Off is the record's byte offset), and
// returns the offset just past the last whole record: good < len(data)
// means a torn tail follows. Blank lines and frames of a foreign record
// kind are skipped. A whole record that fails its CRC, or for which fn
// returns an error, stops the walk with that error. fn may be nil.
func Replay(data []byte, fr Framing, fn func(Record) error) (good int, err error) {
	if fn == nil {
		fn = func(Record) error { return nil }
	}
	if fr.file == 0 {
		for good < len(data) {
			nl := bytes.IndexByte(data[good:], '\n')
			if nl < 0 {
				break // unterminated tail: torn final write
			}
			// The newline is a record's last byte, so a terminated line
			// was written in full: an error from fn here is corruption.
			if line := bytes.TrimSpace(data[good : good+nl]); len(line) > 0 {
				if err := fn(Record{Payload: line, Off: good}); err != nil {
					return good, err
				}
			}
			good += nl + 1
		}
		return good, nil
	}
	if len(data) < HeaderSize && bytes.HasPrefix(fr.header(), data) {
		return 0, nil // empty file, or a header cut short by a crash
	}
	kind, _, err := ParseHeader(data)
	if err != nil {
		return 0, err
	}
	if kind != fr.file {
		return 0, fmt.Errorf("wire %s file where a %s file was expected", kind, fr.file)
	}
	return ScanRecords(data, func(rec Record) error {
		if rec.Kind != fr.rec {
			return nil
		}
		return fn(rec)
	})
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records through replay, and heals a torn tail. With fsync set,
// every Append is fsynced before it returns (the job and ownership
// journals, which must survive an OS crash); without it appends reach
// the page cache only (the result stores, a rebuildable cache). Errors
// carry no package prefix: callers add their own.
func OpenJournal(path string, fr Framing, fsync bool, replay func(Record) error) (*Journal, error) {
	return openJournal(path, fr, fsync, replay, false)
}

// AppendShared durably appends one record to a journal that several
// processes write, opening it for just this operation. An exclusive
// advisory lock is held from before the file is read until it is closed,
// so the torn tail this heals is a dead writer's, never a live peer's
// append in flight, and of several servers booting on a fresh directory
// exactly one finds the file empty and writes its header.
func AppendShared(path string, fr Framing, payload []byte) error {
	j, err := openJournal(path, fr, true, nil, true)
	if err != nil {
		return err
	}
	defer j.Close() // also releases the lock
	return j.Append(payload)
}

func openJournal(path string, fr Framing, fsync bool, replay func(Record) error, lock bool) (_ *Journal, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if lock {
		if err := lockFile(f); err != nil {
			return nil, err
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	good, err := Replay(data, fr, replay)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, framing: fr, fsync: fsync, healed: len(data) - good}
	if j.healed > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			return nil, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	if hdr := fr.header(); good < len(hdr) { // new, or cut short inside its header
		if err := j.write(hdr); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Healed reports how many bytes of torn tail opening truncated away.
func (j *Journal) Healed() int { return j.healed }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append adds one record: frame, one write(2), and the fsync chosen at
// open. After a crash the record is wholly present or wholly absent.
func (j *Journal) Append(payload []byte) error {
	j.buf = j.framing.frame(j.buf[:0], payload)
	return j.write(j.buf)
}

// AppendTorn writes only the first half of the record's frame and
// fsyncs it. It exists for the crash harness alone (the job journal's
// torn-cell barrier), which kills the process right after: the file then
// ends in a genuinely torn record.
func (j *Journal) AppendTorn(payload []byte) error {
	j.buf = j.framing.frame(j.buf[:0], payload)
	if _, err := j.f.Write(j.buf[:len(j.buf)/2]); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *Journal) write(b []byte) error {
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	j.framing.count(len(b))
	if j.fsync {
		return j.f.Sync()
	}
	return nil
}

// Rewrite replaces the journal's contents with the records emit passes
// to put (compaction) through replaceFile, so a crash at any point
// leaves either the old file or the new one; afterwards appends go to
// the new file.
func (j *Journal) Rewrite(emit func(put func(payload []byte)) error) error {
	buf := j.framing.header()
	if err := emit(func(payload []byte) { buf = j.framing.frame(buf, payload) }); err != nil {
		return err
	}
	if err := replaceFile(j.path, buf); err != nil {
		return err
	}
	// The old handle now points at an unlinked inode.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	j.f.Close()
	j.f = f
	j.framing.count(len(buf))
	return nil
}

// Close closes the journal's file.
func (j *Journal) Close() error { return j.f.Close() }

// replaceFile atomically replaces path with data: the bytes go to a
// uniquely named temporary sibling, which is fsynced, renamed over path,
// and made durable by an fsync of the directory — without that last step
// an OS crash can bring back the old file after the call returned.
// Unique names let concurrent writers of one path each publish a
// complete file, and make a crashed run's leftover harmless: it is never
// reopened, and the next run does not wait for it.
func replaceFile(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	// CreateTemp makes the file 0600; stores and journals are shared
	// across processes (and users), so widen before publishing.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
