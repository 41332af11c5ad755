package finject

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConfigNormalizeVersions(t *testing.T) {
	c, err := Config{Margin: 0.05}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != ConfigVersion {
		t.Fatalf("version 0 normalized to %d, want %d", c.Version, ConfigVersion)
	}
	if _, err := (Config{Version: ConfigVersion + 1}).Normalize(); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestConfigNormalizeRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Margin: 1}, "bad policy margin"},
		{Config{Margin: -0.1}, "bad policy margin"},
		{Config{Confidence: 1.5}, "bad policy confidence"},
		{Config{MaxInjections: -1}, "bad policy max_injections"},
		{Config{Workers: -2}, "bad policy workers"},
	}
	for _, tc := range cases {
		_, err := tc.cfg.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Normalize(%+v) = %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestConfigDecodesLegacyPolicyJSON pins wire compatibility: the lease
// wire used to serialize finject.Policy with Go's default (exported,
// untagged) field names, and the /v1/jobs policy block has always used
// snake_case keys. Config must decode both, and drop the retired
// checkpoint interval: the golden run sizes its own ladder.
func TestConfigDecodesLegacyPolicyJSON(t *testing.T) {
	legacyLease := `{"Workers":3,"Margin":0.05,"Confidence":0.95,"Checkpoint":{"Off":false,"Interval":128}}`
	var c Config
	if err := json.Unmarshal([]byte(legacyLease), &c); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 || c.Margin != 0.05 || c.Confidence != 0.95 ||
		c.Checkpoint == nil || *c.Checkpoint != (Checkpoint{}) {
		t.Fatalf("legacy lease policy decoded to %+v", c)
	}

	legacyJob := `{"confidence":0.99,"margin":0.02,"max_injections":500,"checkpoint":{"off":true}}`
	c = Config{}
	if err := json.Unmarshal([]byte(legacyJob), &c); err != nil {
		t.Fatal(err)
	}
	if c.Confidence != 0.99 || c.Margin != 0.02 || c.MaxInjections != 500 ||
		c.Checkpoint == nil || !c.Checkpoint.Off {
		t.Fatalf("legacy job policy decoded to %+v", c)
	}
}

func TestConfigEqualComparesCheckpointByValue(t *testing.T) {
	a := Config{Margin: 0.1, Checkpoint: &Checkpoint{Off: true}}
	b := Config{Margin: 0.1, Checkpoint: &Checkpoint{Off: true}}
	if !a.Equal(b) {
		t.Fatal("value-equal configs with distinct checkpoint pointers compared unequal")
	}
	b.Checkpoint = &Checkpoint{}
	if a.Equal(b) {
		t.Fatal("configs with different checkpoints compared equal")
	}
	b.Checkpoint = nil
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("nil vs set checkpoint compared equal")
	}
}

// TestConfigApplyToKeepsCampaignDefaults checks the idiom that installs
// a policy on a campaign, cp.Policy = cfg.Policy(cp.Policy.Knob()): the
// campaign's checkpoint knob survives a config that leaves it unset, and
// the campaign's seed is never touched.
func TestConfigApplyToKeepsCampaignDefaults(t *testing.T) {
	cp := Campaign{Seed: 7, Policy: Config{Checkpoint: &Checkpoint{Off: true}}}
	cp.Policy = Config{Margin: 0.05}.Policy(cp.Policy.Knob())
	if cp.Seed != 7 {
		t.Fatalf("installing a policy moved the campaign seed: %d", cp.Seed)
	}
	if !cp.Policy.Checkpoint.Off {
		t.Fatalf("nil config checkpoint overwrote campaign knob: %+v", cp.Policy.Checkpoint)
	}
	if cp.Policy.Margin != 0.05 {
		t.Fatalf("margin not applied: %+v", cp.Policy)
	}

	cp.Policy = Config{Checkpoint: &Checkpoint{}}.Policy(cp.Policy.Knob())
	if cp.Seed != 7 || cp.Policy.Checkpoint.Off || cp.Policy.Margin != 0 {
		t.Fatalf("set config fields not applied: seed=%d policy=%+v", cp.Seed, cp.Policy)
	}
}

func TestConfigPolicyResolvesKnobAndDropsSeed(t *testing.T) {
	base := Checkpoint{Off: true}
	pol := Config{Margin: 0.03}.Policy(base)
	if pol.Margin != 0.03 || pol.Knob() != base {
		t.Fatalf("unset checkpoint: got %+v knob %v", pol, pol.Knob())
	}
	pol = Config{Checkpoint: &Checkpoint{}}.Policy(base)
	if pol.Knob().Off {
		t.Fatalf("set checkpoint replaced by base: knob %v", pol.Knob())
	}
	if (Config{}).Knob() != (Checkpoint{}) {
		t.Fatal("nil checkpoint is not the default knob")
	}
}
