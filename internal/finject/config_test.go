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
		{Config{Checkpoint: &Checkpoint{Interval: -5}}, "bad policy checkpoint interval"},
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
// snake_case keys. Config must decode both.
func TestConfigDecodesLegacyPolicyJSON(t *testing.T) {
	legacyLease := `{"Workers":3,"Margin":0.05,"Confidence":0.95,"Checkpoint":{"Off":false,"Interval":128}}`
	var c Config
	if err := json.Unmarshal([]byte(legacyLease), &c); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 || c.Margin != 0.05 || c.Confidence != 0.95 ||
		c.Checkpoint == nil || c.Checkpoint.Interval != 128 {
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
	a := Config{Margin: 0.1, Checkpoint: &Checkpoint{Interval: 64}}
	b := Config{Margin: 0.1, Checkpoint: &Checkpoint{Interval: 64}}
	if !a.Equal(b) {
		t.Fatal("value-equal configs with distinct checkpoint pointers compared unequal")
	}
	b.Checkpoint = &Checkpoint{Interval: 65}
	if a.Equal(b) {
		t.Fatal("configs with different checkpoints compared equal")
	}
	b.Checkpoint = nil
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("nil vs set checkpoint compared equal")
	}
}

func TestConfigApplyToKeepsCampaignDefaults(t *testing.T) {
	cp := Campaign{Seed: 7, Policy: Config{Checkpoint: &Checkpoint{Interval: 32}}}
	Config{Margin: 0.05}.ApplyTo(&cp)
	if cp.Seed != 7 {
		t.Fatalf("zero config seed overwrote campaign seed: %d", cp.Seed)
	}
	if cp.Policy.Checkpoint.Interval != 32 {
		t.Fatalf("nil config checkpoint overwrote campaign knob: %+v", cp.Policy.Checkpoint)
	}
	if cp.Policy.Margin != 0.05 {
		t.Fatalf("margin not applied: %+v", cp.Policy)
	}

	Config{Seed: 11, Checkpoint: &Checkpoint{Off: true}}.ApplyTo(&cp)
	if cp.Seed != 11 || !cp.Policy.Checkpoint.Off {
		t.Fatalf("set config fields not applied: seed=%d policy=%+v", cp.Seed, cp.Policy)
	}
}

func TestConfigPolicyResolvesKnobAndDropsSeed(t *testing.T) {
	base := Checkpoint{Interval: 16}
	pol := Config{Margin: 0.03, Seed: 42}.Policy(base)
	if pol.Seed != 0 || pol.Margin != 0.03 || pol.Knob() != base {
		t.Fatalf("unset checkpoint: got %+v knob %v", pol, pol.Knob())
	}
	pol = Config{Checkpoint: &Checkpoint{Off: true}}.Policy(base)
	if !pol.Knob().Off {
		t.Fatalf("set checkpoint replaced by base: knob %v", pol.Knob())
	}
	if (Config{}).Knob() != (Checkpoint{}) {
		t.Fatal("nil checkpoint is not the default knob")
	}
}
