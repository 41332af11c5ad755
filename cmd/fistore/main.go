// Command fistore inspects, verifies and converts the on-disk files of
// the campaign fleet: result stores (JSON lines or the binary wire
// format) and the control plane's ownership journal.
//
//	fistore inspect cells.store        header, live and dead record counts
//	fistore verify  cells.store        full structural + checksum check
//	fistore convert -to binary cells.jsonl cells.store
//	fistore convert -to json   cells.store cells.jsonl
//
// inspect and verify are strictly read-only (they never compact or
// truncate, unlike opening a store for campaigning). convert copies the
// live records of a store into a fresh file of the other format and then
// proves the copy by re-reading both files and comparing every record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/wire"
)

// errUsage marks argument errors already reported on stderr.
var errUsage = errors.New("usage error")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "fistore: %v\n", err)
		}
		os.Exit(1)
	}
}

func usage(stderr io.Writer) error {
	fmt.Fprintln(stderr, "usage: fistore inspect <file> | verify <file> | convert -to json|binary <src> <dst>")
	return errUsage
}

// run is main's testable core.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "inspect":
		if len(args) != 2 {
			return usage(stderr)
		}
		return inspect(args[1], stdout)
	case "verify":
		if len(args) != 2 {
			return usage(stderr)
		}
		return verify(args[1], stdout)
	case "convert":
		fs := flag.NewFlagSet("fistore convert", flag.ContinueOnError)
		fs.SetOutput(stderr)
		to := fs.String("to", "", "target store format: json or binary")
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return errUsage
		}
		if fs.NArg() != 2 || (*to != campaign.FormatJSON && *to != campaign.FormatBinary) {
			return usage(stderr)
		}
		return convert(fs.Arg(0), fs.Arg(1), *to, stdout)
	default:
		return usage(stderr)
	}
}

// summary is one read-only pass over a result store or an ownership
// journal: no compaction, no torn-tail truncation. inspect prints detail,
// verify only the record count.
type summary struct {
	records, torn int
	detail        []string
}

// readStore decodes every record of a result store image of either
// format.
func readStore(data []byte) (summary, error) {
	live := map[campaign.CellKey]bool{}
	var s summary
	_, torn, err := campaign.ReadStore(data, func(key campaign.CellKey, _ *finject.Result) {
		live[key] = true
		s.records++
	})
	s.torn = torn
	s.detail = []string{fmt.Sprintf("records   %d (%d live, %d dead)", s.records, len(live), s.records-len(live))}
	return s, err
}

// readOwnership decodes every record of an ownership journal image.
func readOwnership(data []byte) (summary, error) {
	recs, good, err := wire.ReplayOwners(data)
	s := summary{records: len(recs), torn: len(data) - good, detail: []string{fmt.Sprintf("records   %d", len(recs))}}
	if len(recs) > 0 {
		last := wire.LatestOwner(recs)
		s.detail = append(s.detail, fmt.Sprintf("epoch     %d, server %s, last event %s at %s", last.Epoch, last.Server, last.Event,
			time.UnixMilli(last.UnixMillis).UTC().Format(time.RFC3339)))
	}
	return s, err
}

// summarize reads and summarizes the result store or ownership journal
// at path; any other file is an error.
func summarize(path string) (data []byte, kind wire.FileKind, s summary, err error) {
	if data, err = os.ReadFile(path); err != nil {
		return nil, 0, s, err
	}
	if wire.IsWireFile(data) {
		kind, _, err = wire.ParseHeader(data)
	}
	if err == nil {
		if kind == wire.FileOwner {
			s, err = readOwnership(data)
		} else { // a JSON-lines or binary store
			s, err = readStore(data)
		}
	}
	if err != nil {
		return nil, 0, s, fmt.Errorf("%s: %w", path, err)
	}
	return data, kind, s, nil
}

// tornNote words the torn tail a crash mid-append left.
func (s summary) tornNote() string {
	return fmt.Sprintf("torn tail of %d bytes; healed on next open", s.torn)
}

// inspect prints a read-only summary of any fleet file.
func inspect(path string, w io.Writer) error {
	data, kind, s, err := summarize(path)
	if err != nil {
		return err
	}
	if kind == 0 {
		fmt.Fprintf(w, "%s: JSON-lines store, %d bytes\n", path, len(data))
	} else {
		fmt.Fprintf(w, "%s: wire v%d %s file, %d bytes\n", path, data[4], kind, len(data))
	}
	for _, line := range s.detail {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if s.torn > 0 {
		fmt.Fprintf(w, "  %s\n", s.tornNote())
	}
	return nil
}

// verify fully checks a file: framing, checksums, and record decodes.
func verify(path string, w io.Writer) error {
	_, _, s, err := summarize(path)
	if err != nil {
		return err
	}
	if s.torn > 0 {
		fmt.Fprintf(w, "%s: ok, %d records (%s)\n", path, s.records, s.tornNote())
		return nil
	}
	fmt.Fprintf(w, "%s: ok, %d records\n", path, s.records)
	return nil
}

// convert copies the live records of the store at src into a fresh dst
// file of the target format, then re-reads both files and proves every
// record survived the round trip.
func convert(src, dst, format string, w io.Writer) error {
	// OpenStore creates a store that does not exist: check first, so a
	// mistyped source is an error rather than an empty conversion.
	if _, err := os.Stat(src); err != nil {
		return err
	}
	if _, err := os.Stat(dst); err == nil {
		return fmt.Errorf("%s already exists (refusing to overwrite)", dst)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	from, err := campaign.OpenStore(src, campaign.FormatAuto)
	if err != nil {
		return err
	}
	defer from.Close()
	to, err := campaign.OpenStore(dst, format)
	if err != nil {
		return err
	}
	for _, k := range from.Keys() {
		res, ok, err := from.Get(k)
		if err != nil || !ok {
			to.Close()
			return fmt.Errorf("read %s from %s: ok=%v err=%v", k, src, ok, err)
		}
		if err := to.Put(k, res); err != nil {
			to.Close()
			return err
		}
	}
	if err := to.Close(); err != nil {
		return err
	}

	// Prove the conversion: a fresh open of dst must contain exactly the
	// records of src.
	check, err := campaign.OpenStore(dst, campaign.FormatAuto)
	if err != nil {
		return fmt.Errorf("re-open converted store: %w", err)
	}
	defer check.Close()
	if check.Len() != from.Len() {
		return fmt.Errorf("converted store holds %d cells, source holds %d", check.Len(), from.Len())
	}
	for _, k := range from.Keys() {
		want, _, _ := from.Get(k)
		got, ok, err := check.Get(k)
		if err != nil || !ok {
			return fmt.Errorf("converted store is missing cell %s", k)
		}
		if !resultsEqual(want, got) {
			return fmt.Errorf("cell %s does not round-trip", k)
		}
	}
	sb, _ := os.Stat(src)
	db, _ := os.Stat(dst)
	fmt.Fprintf(w, "%s (%d bytes) -> %s (%s, %d bytes): %d cells converted and verified\n",
		src, sb.Size(), dst, format, db.Size(), from.Len())
	return nil
}

// resultsEqual compares two results field by field, treating nil and
// empty detail slices as equal (JSON and wire encode them the same way).
func resultsEqual(a, b *finject.Result) bool {
	if a.Outcomes != b.Outcomes || a.Injections != b.Injections ||
		a.GoldenStats != b.GoldenStats || a.Occupancy != b.Occupancy ||
		(a.AVFACE == nil) != (b.AVFACE == nil) || a.AVFACE != nil && *a.AVFACE != *b.AVFACE ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}
