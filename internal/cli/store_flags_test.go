package cli

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// TestStoreFlags pins the shared persistence flag block: names and
// defaults, the no-flag no-op, that the parsed values reach the store
// constructor, and that -ladder-dir is gone (ladders live in the heap).
func TestStoreFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := AddStoreFlags(fs)
	for name, def := range map[string]string{"store": "", "store-format": campaign.FormatAuto} {
		if f := fs.Lookup(name); f == nil || f.DefValue != def {
			t.Fatalf("flag -%s = %+v, want default %q", name, f, def)
		}
	}
	if fs.Lookup("ladder-dir") != nil {
		t.Fatal("-ladder-dir is registered")
	}
	if ds, err := sf.Open(); ds != nil || err != nil {
		t.Fatalf("Open without -store = %v, %v", ds, err)
	}

	dir := t.TempDir()
	if err := fs.Parse([]string{"-store", filepath.Join(dir, "cells.store"), "-store-format", "binary"}); err != nil {
		t.Fatal(err)
	}
	ds, err := sf.Open()
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := campaign.OpenStore(sf.Path, campaign.FormatJSON); err == nil {
		t.Fatal("-store-format binary did not reach the store")
	}
}
