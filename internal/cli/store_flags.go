package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/finject"
)

// StoreFlags is the one shared definition of the persistence flags:
// -store and -store-format select the result store, -ladder-dir the
// persisted checkpoint ladders. gufi, sifi, figures and fiserver
// register the block through AddStoreFlags (fiworker, which has no store,
// takes -ladder-dir alone), so the tools agree on names, defaults and
// help text.
type StoreFlags struct {
	// Path is the result store file ("" = in-memory only).
	Path string
	// Format is the -store-format value (campaign.Format*).
	Format string
	// LadderDir is the ladder directory ("" = ladders stay in heap).
	LadderDir string
}

// AddStoreFlags registers -store, -store-format and -ladder-dir on fs.
// After fs.Parse, call InstallLadderDir once and Open where the store is
// needed.
func AddStoreFlags(fs *flag.FlagSet) *StoreFlags {
	s := AddLadderDirFlag(fs)
	fs.StringVar(&s.Path, "store", "", "result store file; repeated identical campaigns are served from it (in-memory only when empty)")
	fs.StringVar(&s.Format, "store-format", campaign.FormatAuto, "store file format: auto (sniff existing files, JSON for new), json, or binary")
	return s
}

// AddLadderDirFlag registers -ladder-dir alone.
func AddLadderDirFlag(fs *flag.FlagSet) *StoreFlags {
	s := &StoreFlags{}
	fs.StringVar(&s.LadderDir, "ladder-dir", "", "directory for persisted checkpoint ladders, shared read-only (mmap) across processes")
	return s
}

// InstallLadderDir creates the -ladder-dir directory and points the
// injection engine at it; a no-op without the flag.
func (s *StoreFlags) InstallLadderDir() error {
	if s.LadderDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.LadderDir, 0o755); err != nil {
		return fmt.Errorf("-ladder-dir: %w", err)
	}
	finject.SetLadderDir(s.LadderDir)
	return nil
}

// Open opens the -store file in the -store-format format. Without -store
// it returns (nil, nil): the caller falls back to its in-memory default.
func (s *StoreFlags) Open() (*campaign.DiskStore, error) {
	if s.Path == "" {
		return nil, nil
	}
	return campaign.OpenStore(s.Path, s.Format)
}
