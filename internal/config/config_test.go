package config

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerchief/internal/cmp"
)

func TestMitigationSetupMatchesTable2(t *testing.T) {
	e := MitigationSetup("sirius", "powerchief", "high", 7)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.BudgetWatts != 13.56 {
		t.Error("budget != 13.56W")
	}
	if e.AdjustInterval.Std() != 25*time.Second {
		t.Error("adjust interval != 25s")
	}
	if e.BalanceThreshold.Std() != time.Second {
		t.Error("balance threshold != 1s")
	}
	if e.WithdrawInterval.Std() != 150*time.Second {
		t.Error("withdraw interval != 150s")
	}
	if e.Level() != cmp.MidLevel {
		t.Error("level != 1.8GHz")
	}
	if e.Duration.Std() != 900*time.Second {
		t.Error("duration != 900s")
	}
}

func TestValidateRejectsBadExperiments(t *testing.T) {
	good := MitigationSetup("sirius", "powerchief", "high", 1)
	mutations := map[string]func(*Experiment){
		"no name":        func(e *Experiment) { e.Name = "" },
		"bad level":      func(e *Experiment) { e.LevelGHz = 5.0 },
		"neg budget":     func(e *Experiment) { e.BudgetWatts = -1 },
		"bad instances":  func(e *Experiment) { e.Instances = []int{0} },
		"bad load":       func(e *Experiment) { e.LoadLevel = "extreme" },
		"zero duration":  func(e *Experiment) { e.Duration = 0 },
		"neg interval":   func(e *Experiment) { e.AdjustInterval = -1 },
		"neg threshold":  func(e *Experiment) { e.BalanceThreshold = -1 },
		"neg w-interval": func(e *Experiment) { e.WithdrawInterval = -1 },
	}
	for name, mut := range mutations {
		e := good
		mut(&e)
		if e.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := MitigationSetup("nlp", "inst-boost", "medium", 99)
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := e.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != e.Name || got.Seed != 99 || got.AdjustInterval != e.AdjustInterval {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestReadRejectsUnknownFieldsAndBadJSON(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"nonsense": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Read(strings.NewReader(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	// Valid JSON, invalid experiment.
	if _, err := Read(strings.NewReader(`{"name":"x","app":"sirius","policy":"baseline","level_ghz":1.8,"load_level":"extreme","duration":"10s"}`)); err == nil {
		t.Error("invalid experiment accepted")
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"90s"`)); err != nil || d.Std() != 90*time.Second {
		t.Errorf("string form: %v %v", d, nil)
	}
	if err := d.UnmarshalJSON([]byte(`1000000000`)); err != nil || d.Std() != time.Second {
		t.Errorf("integer form: %v", d)
	}
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("bad duration string accepted")
	}
	if err := d.UnmarshalJSON([]byte(`{"x":1}`)); err == nil {
		t.Error("object accepted as duration")
	}
	b, err := Duration(25 * time.Second).MarshalJSON()
	if err != nil || string(b) != `"25s"` {
		t.Errorf("MarshalJSON = %s, %v", b, err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
