package core

import (
	"math"
	"reflect"
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// TestEventsGroupRecyclePasses: a record's donor steps render as one
// recycle event per pass — a donor stepping again opens the next pass —
// and a failure keeps the passes that completed before the failing step,
// drops the one it interrupted, and reports the rollback instead of the
// outcome. A plan validation rejected renders its identification alone.
func TestEventsGroupRecyclePasses(t *testing.T) {
	model := cmp.DefaultModel()
	donor := func(in string, from, to int) ActionRecord {
		return ActionRecord{Kind: "set-level", Instance: in, Stage: "S", From: from, To: to, Reason: "recycle"}
	}
	plan := []ActionRecord{
		donor("B_1", 6, 4), donor("C_1", 6, 5), // pass 1
		donor("B_1", 4, 2), // pass 2: B_1 again
		{Kind: "set-level", Instance: "A_1", Stage: "A", From: 6, To: 9, Reason: "boost"},
	}
	kinds := func(es []telemetry.Event) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = string(e.Kind)
			if e.Kind == telemetry.EventRecycle {
				out[i] += "×" + string(rune('0'+len(e.Donors)))
			}
		}
		return out
	}
	id := &Identification{Stage: "A", Instance: "A_1"}
	for _, tc := range []struct {
		name    string
		failure *Failure
		want    []string
	}{
		{"applied", nil, []string{"identify", "recycle×2", "recycle×1", "boost-freq"}},
		{"failed at the boost", &Failure{Step: 3}, []string{"identify", "recycle×2", "recycle×1", "plan-rollback"}},
		{"failed inside pass 1", &Failure{Step: 1}, []string{"identify", "plan-rollback"}},
		{"failed opening pass 2", &Failure{Step: 2}, []string{"identify", "recycle×2", "plan-rollback"}},
		{"rejected", &Failure{Step: -1}, []string{"identify"}},
	} {
		rec := DecisionRecord{Tick: 5, Plan: plan, Identified: id, Decided: true, Failure: tc.failure,
			Outcome: BoostOutcome{Kind: BoostFrequency, Target: "A_1", OldLevel: 6, NewLevel: 9}}
		draw := 4 * model.Power(6)
		events := rec.Events(0, model, draw, draw)
		if got := kinds(events); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: events %v, want %v", tc.name, got, tc.want)
		}
		for _, e := range events {
			if e.Tick != 5 {
				t.Errorf("%s: %s carries tick %d, want the record's 5", tc.name, e.Kind, e.Tick)
			}
		}
		if tc.failure == nil {
			// Headrooms re-walk the plan: each pass's freed watts, then the
			// boost spends them.
			freed1 := model.Power(6) - model.Power(4) + model.Power(6) - model.Power(5)
			if e := events[1]; math.Abs(e.RecycledWatts-float64(freed1)) > 1e-9 || math.Abs(e.HeadroomWatts-float64(freed1)) > 1e-9 {
				t.Errorf("pass 1 freed %v headroom %v, want %v both", e.RecycledWatts, e.HeadroomWatts, freed1)
			}
		}
	}
}
