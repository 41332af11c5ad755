package cli

import (
	"flag"

	"repro/internal/campaign"
)

// StoreFlags is the one shared definition of the persistence flags:
// -store and -store-format select the result store. gufi, sifi, figures
// and fiserver register the block through AddStoreFlags, so the tools
// agree on names, defaults and help text.
type StoreFlags struct {
	// Path is the result store file ("" = in-memory only).
	Path string
	// Format is the -store-format value (campaign.Format*).
	Format string
}

// AddStoreFlags registers -store and -store-format on fs. After
// fs.Parse, call Open where the store is needed.
func AddStoreFlags(fs *flag.FlagSet) *StoreFlags {
	s := &StoreFlags{}
	fs.StringVar(&s.Path, "store", "", "result store file; repeated identical campaigns are served from it (in-memory only when empty)")
	fs.StringVar(&s.Format, "store-format", campaign.FormatAuto, "store file format: auto (sniff existing files, JSON for new), json, or binary")
	return s
}

// Open opens the -store file in the -store-format format. Without -store
// it returns (nil, nil): the caller falls back to its in-memory default.
func (s *StoreFlags) Open() (*campaign.DiskStore, error) {
	if s.Path == "" {
		return nil, nil
	}
	return campaign.OpenStore(s.Path, s.Format)
}
