package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"powerchief/internal/cmp"
)

// Duration wraps time.Duration with human-readable JSON ("25s").
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting both "25s" strings
// and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("config: duration must be a string or integer nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Experiment is a complete experiment description.
type Experiment struct {
	// Name labels the experiment in output.
	Name string `json:"name"`
	// App selects a built-in application by name (app.ByName).
	App string `json:"app"`
	// Instances is the initial per-stage instance count (empty = 1 each).
	Instances []int `json:"instances,omitempty"`
	// LevelGHz is the initial core frequency in GHz (e.g. 1.8).
	LevelGHz float64 `json:"level_ghz"`
	// BudgetWatts is the application power budget (0 = derive from the
	// initial configuration).
	BudgetWatts float64 `json:"budget_watts"`
	// Policy selects the control policy by its registered name
	// (replay.PolicyNames).
	Policy string `json:"policy"`
	// QoS is the latency target of the QoS-saving policies (pegasus, saver).
	QoS Duration `json:"qos,omitempty"`
	// AdjustInterval is the control period.
	AdjustInterval Duration `json:"adjust_interval"`
	// BalanceThreshold suppresses reallocation below this metric spread; 0
	// reallocates on any spread (MitigationSetup writes Table 2's 1 s).
	BalanceThreshold Duration `json:"balance_threshold"`
	// WithdrawInterval is the §6.2 withdraw period (0 disables withdraw).
	WithdrawInterval Duration `json:"withdraw_interval"`
	// LoadLevel selects low/medium/high (utilization of reference capacity).
	LoadLevel string `json:"load_level"`
	// Duration is the load-generation horizon.
	Duration Duration `json:"duration"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
}

// MitigationSetup returns the Table 2 configuration for the given built-in
// application and load level: one instance per stage at 1.8 GHz under a
// 13.56 W budget, 25 s adjust interval, 1 s balance threshold, 150 s
// withdraw interval, 900 s runs.
func MitigationSetup(app, policy, load string, seed int64) Experiment {
	return Experiment{
		Name:             fmt.Sprintf("%s-%s-%s", app, policy, load),
		App:              app,
		LevelGHz:         1.8,
		BudgetWatts:      13.56,
		Policy:           policy,
		AdjustInterval:   Duration(25 * time.Second),
		BalanceThreshold: Duration(time.Second),
		WithdrawInterval: Duration(150 * time.Second),
		LoadLevel:        load,
		Duration:         Duration(900 * time.Second),
		Seed:             seed,
	}
}

// Validate checks the experiment description's values. The app and policy
// names are checked where they resolve, in harness.FromConfig.
func (e Experiment) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("config: experiment needs a name")
	}
	if e.LevelGHz < float64(cmp.MinGHz) || e.LevelGHz > float64(cmp.MaxGHz) {
		return fmt.Errorf("config: level %.2f GHz outside the %v–%v ladder", e.LevelGHz, cmp.MinGHz, cmp.MaxGHz)
	}
	if e.BudgetWatts < 0 {
		return fmt.Errorf("config: negative budget")
	}
	for i, n := range e.Instances {
		if n < 1 {
			return fmt.Errorf("config: stage %d instance count %d", i, n)
		}
	}
	switch e.LoadLevel {
	case "low", "medium", "high":
	default:
		return fmt.Errorf("config: unknown load level %q", e.LoadLevel)
	}
	if e.Duration <= 0 {
		return fmt.Errorf("config: duration must be positive")
	}
	if e.AdjustInterval < 0 || e.BalanceThreshold < 0 || e.WithdrawInterval < 0 {
		return fmt.Errorf("config: negative control interval")
	}
	return nil
}

// Level converts the configured GHz to the discrete ladder level.
func (e Experiment) Level() cmp.Level { return cmp.LevelOf(cmp.GHz(e.LevelGHz)) }

// Write serializes the experiment as indented JSON.
func (e Experiment) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Read parses and validates an experiment from JSON.
func Read(r io.Reader) (Experiment, error) {
	var e Experiment
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return Experiment{}, fmt.Errorf("config: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Experiment{}, err
	}
	return e, nil
}

// Load reads an experiment from a file.
func Load(path string) (Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return Experiment{}, err
	}
	defer f.Close()
	return Read(f)
}

// Save writes an experiment to a file.
func (e Experiment) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.Write(f)
}
