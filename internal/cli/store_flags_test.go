package cli

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
)

// TestStoreFlags pins the shared persistence flag block: names and
// defaults, the no-flag no-ops, and that the parsed values reach the
// ladder directory and the store constructor.
func TestStoreFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := AddStoreFlags(fs)
	for name, def := range map[string]string{"store": "", "store-format": campaign.FormatAuto, "ladder-dir": ""} {
		if f := fs.Lookup(name); f == nil || f.DefValue != def {
			t.Fatalf("flag -%s = %+v, want default %q", name, f, def)
		}
	}
	if err := sf.InstallLadderDir(); err != nil {
		t.Fatal(err)
	}
	if ds, err := sf.Open(); ds != nil || err != nil {
		t.Fatalf("Open without -store = %v, %v", ds, err)
	}

	dir := t.TempDir()
	ladders := filepath.Join(dir, "a", "ladders")
	if err := fs.Parse([]string{"-store", filepath.Join(dir, "cells.store"), "-store-format", "binary", "-ladder-dir", ladders}); err != nil {
		t.Fatal(err)
	}
	defer finject.SetLadderDir(finject.LadderDir())
	if err := sf.InstallLadderDir(); err != nil || finject.LadderDir() != ladders {
		t.Fatalf("InstallLadderDir: %v, engine uses %q", err, finject.LadderDir())
	}
	ds, err := sf.Open()
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := campaign.OpenStore(sf.Path, campaign.FormatJSON); err == nil {
		t.Fatal("-store-format binary did not reach the store")
	}

	only := flag.NewFlagSet("worker", flag.ContinueOnError)
	AddLadderDirFlag(only)
	if only.Lookup("ladder-dir") == nil || only.Lookup("store") != nil {
		t.Fatal("AddLadderDirFlag must register -ladder-dir alone")
	}
}
