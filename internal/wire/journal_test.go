package wire

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// journalFramings are the two framings every journal test runs under.
var journalFramings = []struct {
	name string
	fr   Framing
}{
	{"lines", Lines},
	{"frames", OwnerFraming},
}

// payload returns the i-th test record: distinct, newline-free, and of
// varying length so record boundaries fall at irregular offsets.
func payload(i int) []byte {
	return []byte(fmt.Sprintf(`{"n":%d,"pad":"%s"}`, i, strings.Repeat("x", i%7)))
}

// openCollect opens the journal at path and returns what it replayed.
func openCollect(t *testing.T, path string, fr Framing) (*Journal, []string, error) {
	t.Helper()
	var got []string
	j, err := OpenJournal(path, fr, false, func(rec Record) error {
		if fr.file == 0 && !bytes.HasPrefix(rec.Payload, []byte(`{"n":`)) {
			return fmt.Errorf("unparsable line %q", rec.Payload)
		}
		got = append(got, string(rec.Payload))
		return nil
	})
	return j, got, err
}

// buildJournal appends k records to a fresh journal and returns the file
// image plus the offset of every record boundary (bounds[i] = size with
// i records).
func buildJournal(t *testing.T, path string, fr Framing, k int) (data []byte, bounds []int) {
	t.Helper()
	j, _, err := openCollect(t, path, fr)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Size())
	}
	bounds = append(bounds, size())
	for i := 0; i < k; i++ {
		if err := j.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, size())
	}
	j.Close()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, bounds
}

func wantPayloads(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, string(payload(i)))
	}
	return out
}

// TestJournalCutEveryOffset truncates a journal at every byte offset:
// open succeeds, replays exactly the whole records before the cut,
// reports and removes the torn tail, and the next append lands on the
// boundary.
func TestJournalCutEveryOffset(t *testing.T) {
	for _, tc := range journalFramings {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const k = 5
			data, bounds := buildJournal(t, filepath.Join(dir, "full"), tc.fr, k)
			path := filepath.Join(dir, "cut")
			for off := 0; off <= len(data); off++ {
				whole := 0 // records wholly before the cut
				for whole < k && bounds[whole+1] <= off {
					whole++
				}
				if err := os.WriteFile(path, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				j, got, err := openCollect(t, path, tc.fr)
				if err != nil {
					t.Fatalf("cut at %d: %v", off, err)
				}
				if !reflect.DeepEqual(got, wantPayloads(whole)) {
					t.Fatalf("cut at %d: replayed %q, want the first %d records", off, got, whole)
				}
				// A cut inside the header leaves nothing to keep.
				keep := bounds[whole]
				if off < bounds[0] {
					keep = 0
				}
				if j.Healed() != off-keep {
					t.Fatalf("cut at %d: Healed() = %d, want %d", off, j.Healed(), off-keep)
				}
				if err := j.Append(payload(whole)); err != nil {
					t.Fatalf("cut at %d: append: %v", off, err)
				}
				j.Close()
				if healed, _ := os.ReadFile(path); whole < k && !bytes.Equal(healed, data[:bounds[whole+1]]) {
					t.Fatalf("cut at %d: after heal + append the file is not the %d-record prefix", off, whole+1)
				}
				j, got, err = openCollect(t, path, tc.fr)
				if err != nil || !reflect.DeepEqual(got, wantPayloads(whole+1)) || j.Healed() != 0 {
					t.Fatalf("cut at %d: reopen replayed %q (err %v), want %d records and no heal", off, got, err, whole+1)
				}
				j.Close()
			}
		})
	}
}

// TestJournalCorruptionIsNotHealed: a record that is wholly present but
// damaged is an error and the file stays as it was.
func TestJournalCorruptionIsNotHealed(t *testing.T) {
	dir := t.TempDir()
	check := func(t *testing.T, fr Framing, damaged []byte, wantCorrupt bool) {
		t.Helper()
		path := filepath.Join(dir, "damaged")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := openCollect(t, path, fr)
		if err == nil {
			j.Close()
			t.Fatal("damaged journal opened cleanly")
		}
		if wantCorrupt && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
			t.Fatal("a failed open modified the file")
		}
	}
	t.Run("frames", func(t *testing.T) {
		fr := OwnerFraming
		data, bounds := buildJournal(t, filepath.Join(dir, "frames"), fr, 4)
		// Every byte of every non-final frame, except the length prefix: a
		// damaged length that points past the end of the file is, by
		// construction, indistinguishable from a torn append.
		for off := bounds[0]; off < bounds[3]; off++ {
			rel := off
			for _, b := range bounds {
				if b <= off {
					rel = off - b
				}
			}
			if rel >= 1 && rel <= 4 {
				continue
			}
			damaged := append([]byte(nil), data...)
			damaged[off] ^= 0x01
			check(t, fr, damaged, true)
		}
	})
	t.Run("lines", func(t *testing.T) {
		data, bounds := buildJournal(t, filepath.Join(dir, "lines"), Lines, 4)
		for _, at := range []int{bounds[0], bounds[2]} {
			damaged := append(append(append([]byte(nil), data[:at]...), "{not a record\n"...), data[at:]...)
			check(t, Lines, damaged, false)
		}
	})
	t.Run("foreign file kind", func(t *testing.T) {
		data, _ := buildJournal(t, filepath.Join(dir, "store"), Frames(FileStore, RecCell), 1)
		check(t, OwnerFraming, data, false)
	})
}

// TestJournalSkipsForeignRecordKinds: a frame of another kind is a
// forward-compatible addition, not an error and not a record.
func TestJournalSkipsForeignRecordKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	b := AppendHeader(nil, FileOwner)
	b = AppendRecord(b, RecOwner, payload(0))
	b = AppendRecord(b, RecordKind(200), []byte("from the future"))
	b = AppendRecord(b, RecOwner, payload(1))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openCollect(t, path, OwnerFraming)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(got, wantPayloads(2)) {
		t.Fatalf("replayed %q", got)
	}
}

// TestJournalConcurrentAppenders is the lost-record regression test:
// several writers on one path (as several fiservers write the ownership
// journal) append at the same time, and every record must be in the file
// exactly once behind exactly one header. Before the journal the
// ownership appender wrote at a scanned offset and peers overwrote each
// other. "handles" gives each writer its own long-lived Journal on the
// file; "shared" opens per operation through AppendShared on a fresh
// path, where every open also heals (without its lock, a heal beside a
// peer's half-visible write truncates that record away) and the first
// one writes the header.
func TestJournalConcurrentAppenders(t *testing.T) {
	const writers, each = 8, 50
	for _, tc := range journalFramings {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shared=%v", tc.name, shared), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "shared")
				appendTo := make([]func([]byte) error, writers)
				for w := range appendTo {
					appendTo[w] = func(p []byte) error { return AppendShared(path, tc.fr, p) }
					if !shared {
						j, err := OpenJournal(path, tc.fr, false, nil)
						if err != nil {
							t.Fatal(err)
						}
						defer j.Close()
						appendTo[w] = j.Append
					}
				}
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							if err := appendTo[w](payload(w*each + i)); err != nil {
								t.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				j, got, err := openCollect(t, path, tc.fr)
				if err != nil {
					t.Fatal(err)
				}
				j.Close()
				seen := map[string]int{}
				for _, p := range got {
					seen[p]++
				}
				for i := 0; i < writers*each; i++ {
					if seen[string(payload(i))] != 1 {
						t.Fatalf("record %d appears %d times among %d replayed records, want once", i, seen[string(payload(i))], len(got))
					}
				}
			})
		}
	}
}

// TestJournalRewrite: compaction replaces the contents atomically, the
// journal keeps appending to the new file, a failed rewrite or a crashed
// one's leftover temporary file leaves the old contents alone.
func TestJournalRewrite(t *testing.T) {
	for _, tc := range journalFramings {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "j")
			data, _ := buildJournal(t, path, tc.fr, 6)

			// A crash between writing the temporary file and the rename
			// leaves a half-written sibling behind.
			leftover := filepath.Join(dir, ".j.crashed.tmp")
			if err := os.WriteFile(leftover, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			j, got, err := openCollect(t, path, tc.fr)
			if err != nil || len(got) != 6 {
				t.Fatalf("open beside a leftover temp file: %d records, err %v", len(got), err)
			}
			defer j.Close()

			boom := errors.New("boom")
			if err := j.Rewrite(func(put func([]byte)) error { put(payload(0)); return boom }); !errors.Is(err, boom) {
				t.Fatalf("failed rewrite returned %v", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("a failed rewrite changed the journal")
			}

			if err := j.Rewrite(func(put func([]byte)) error {
				put(payload(4))
				put(payload(5))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(payload(6)); err != nil {
				t.Fatal(err)
			}
			j2, got, err := openCollect(t, path, tc.fr)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if want := []string{string(payload(4)), string(payload(5)), string(payload(6))}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after rewrite + append replayed %q, want %q", got, want)
			}
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if e.Name() != "j" && e.Name() != filepath.Base(leftover) {
					t.Fatalf("rewrite left %s behind", e.Name())
				}
			}
		})
	}
}

// TestJournalAppendTorn: the crash-harness seam leaves exactly the torn
// tail a mid-write SIGKILL would, and the next open heals it.
func TestJournalAppendTorn(t *testing.T) {
	for _, tc := range journalFramings {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			_, bounds := buildJournal(t, path, tc.fr, 2)
			j, _, err := openCollect(t, path, tc.fr)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendTorn(payload(2)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j, got, err := openCollect(t, path, tc.fr)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(got) != 2 || j.Healed() == 0 {
				t.Fatalf("after a torn append: %d records, healed %d bytes", len(got), j.Healed())
			}
			if st, _ := os.Stat(path); int(st.Size()) != bounds[2] {
				t.Fatalf("healed file is %d bytes, want %d", st.Size(), bounds[2])
			}
		})
	}
}

// FuzzJournal feeds both framings arbitrary bytes and arbitrary damage
// to a valid journal. Opening never panics; if it fails the file is
// untouched; if it succeeds only a tail was removed, what it replayed is
// a prefix of what was appended (for damage to a valid file), and the
// healed journal takes an append that a reopen sees.
func FuzzJournal(f *testing.F) {
	f.Add([]byte("FIWR\x01\x03\x00\x00"), uint16(0), uint16(0), byte(0), false)
	f.Add([]byte(`{"n":0}`+"\n"+`{"n":`), uint16(3), uint16(9), byte(0x40), true)
	f.Add([]byte{}, uint16(40), uint16(2), byte(1), false)
	f.Fuzz(func(t *testing.T, raw []byte, cut, flipAt uint16, flip byte, lines bool) {
		fr := OwnerFraming
		if lines {
			fr = Lines
		}
		dir := t.TempDir()
		valid, _ := buildJournal(t, filepath.Join(dir, "valid"), fr, 4)
		damaged := append([]byte(nil), valid[:int(cut)%(len(valid)+1)]...)
		if len(damaged) > 0 {
			damaged[int(flipAt)%len(damaged)] ^= flip
		}
		for _, tc := range []struct {
			name      string
			image     []byte
			fromValid bool
		}{{"raw", raw, false}, {"damaged", damaged, true}} {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			j, err := OpenJournal(path, fr, false, func(rec Record) error {
				got = append(got, string(rec.Payload))
				return nil
			})
			after, _ := os.ReadFile(path)
			if err != nil {
				if !bytes.Equal(after, tc.image) {
					t.Fatalf("%s: failed open (%v) modified the file", tc.name, err)
				}
				continue
			}
			kept := len(tc.image) - j.Healed()
			if kept < 0 || (j.Healed() == 0 && len(after) < len(tc.image)) {
				t.Fatalf("%s: healed %d of %d bytes, file now %d", tc.name, j.Healed(), len(tc.image), len(after))
			}
			// Beyond the kept prefix the file holds at most a header the
			// open wrote for a file that had none.
			if !bytes.HasPrefix(after, tc.image[:kept]) && kept >= len(fr.header()) {
				t.Fatalf("%s: open rewrote bytes before the tail it removed", tc.name)
			}
			// Lines carry no checksum, so a flipped payload byte replays as is.
			if tc.fromValid && (flip == 0 || !lines) && !reflect.DeepEqual(got, wantPayloads(len(got))) {
				t.Fatalf("%s: replayed %q, not a prefix of what was appended", tc.name, got)
			}
			if err := j.Append(payload(99)); err != nil {
				t.Fatalf("%s: append after open: %v", tc.name, err)
			}
			j.Close()
			var again []string
			j, err = OpenJournal(path, fr, false, func(rec Record) error {
				again = append(again, string(rec.Payload))
				return nil
			})
			if err != nil {
				t.Fatalf("%s: reopen after append: %v", tc.name, err)
			}
			j.Close()
			if want := append(got, string(payload(99))); !reflect.DeepEqual(again, want) {
				t.Fatalf("%s: reopen replayed %q, want %q", tc.name, again, want)
			}
		}
	})
}
