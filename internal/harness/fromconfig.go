package harness

import (
	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/config"
	"powerchief/internal/core"
	"powerchief/internal/replay"
	"powerchief/internal/workload"
)

// FromConfig materializes a runnable Scenario from a declarative experiment
// description (internal/config), so experiments can be stored as JSON files
// and replayed exactly.
func FromConfig(e config.Experiment) (Scenario, error) {
	if err := e.Validate(); err != nil {
		return Scenario{}, err
	}
	a, err := app.ByName(e.App)
	if err != nil {
		return Scenario{}, err
	}
	load, err := workload.ParseLevel(e.LoadLevel)
	if err != nil {
		return Scenario{}, err
	}
	// The adjust interval lives on the scenario; the remaining control
	// parameters configure the policy.
	cfg := core.DefaultConfig()
	cfg.BalanceThreshold = e.BalanceThreshold.Std()
	cfg.WithdrawInterval = e.WithdrawInterval.Std()

	mk, err := replay.PolicyFactory(e.Policy, e.QoS.Std(), cfg)
	if err != nil {
		return Scenario{}, err
	}

	sc := Scenario{
		Name:           e.Name,
		App:            a,
		Instances:      e.Instances,
		Level:          e.Level(),
		Budget:         cmp.Watts(e.BudgetWatts),
		Policy:         func() core.Policy { return mk() },
		AdjustInterval: e.AdjustInterval.Std(),
		Source:         ConstantLoad(load),
		Duration:       e.Duration.Std(),
		Seed:           e.Seed,
	}
	return sc, nil
}
