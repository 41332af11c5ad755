package experiment

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzParse hammers the one parser between the network and a figure run
// (POST /v1/experiments hands its body straight to Parse). Whatever the
// bytes: Parse never panics; a spec it accepts normalizes idempotently
// and survives its canonical form — Parse(MarshalIndent(s)) is
// s.Normalize() again; and Validate and Compile answer with errors,
// never panics.
func FuzzParse(f *testing.F) {
	for _, path := range []string{
		"testdata/fig1.json", "testdata/fig2.json", "testdata/fig3.json",
		"testdata/compat_v1_checkpoint.json", "testdata/compat_v1_nocheckpoint.json",
		"../../examples/spec_sweep/protection_whatif.json",
	} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"version":1,"chips":[],"policy":{"confidence":95,"checkpoint":{"interval":-1}},"metrics":{"protection":[{"name":"","schemes":[]}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseBytes(data)
		if err != nil {
			return
		}
		norm := s.Normalize()
		if again := norm.Normalize(); !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\nvs\n%+v", again, norm)
		}
		canon, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseBytes(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		// Compared in canonical form, where a nil and an empty axis are
		// the same spec.
		if recanon, err := back.MarshalIndent(); err != nil || !bytes.Equal(recanon, canon) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\nvs\n%s", err, recanon, canon)
		}
		_, verr := s.Validate()
		if _, cerr := s.Compile(); (verr == nil) != (cerr == nil) {
			t.Fatalf("Validate says %v, Compile says %v", verr, cerr)
		}
	})
}
