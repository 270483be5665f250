package harness

import (
	"strings"
	"testing"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/workload"
)

// TestRecordsIdentityCatchesADroppedRecord is the mutation test of the
// records identity: a completion tap that loses one record of one query on
// its way into the aggregator must fail Run and RunMulti, naming what went
// missing, while the same runs with the real tap pass.
func TestRecordsIdentityCatchesADroppedRecord(t *testing.T) {
	single := mitigationScenario(app.Sirius(), "records", workload.Medium,
		func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }, 7)
	multi := BenchTenantScenario(7)
	runs := map[string]func() error{
		"Run":      func() error { _, err := Run(single); return err },
		"RunMulti": func() error { _, err := RunMulti(multi); return err },
	}
	for name, run := range runs {
		if err := run(); err != nil {
			t.Fatalf("%s with the real tap: %v", name, err)
		}
	}
	t.Cleanup(func() { ingest = (*core.Aggregator).Ingest })
	for name, run := range runs {
		dropped := false
		ingest = func(a *core.Aggregator, q *query.Query) {
			if !dropped && len(q.Records) > 1 {
				dropped = true
				q = q.Clone()
				q.Records = q.Records[1:]
			}
			a.Ingest(q)
		}
		err := run()
		t.Logf("%s: %v", name, err)
		if err == nil || !strings.Contains(err.Error(), "short by 1 records") {
			t.Errorf("%s with a record dropped: err = %v, want the identity to name one missing record", name, err)
		}
	}
}
