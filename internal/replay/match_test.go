package replay

import (
	"encoding/json"
	"math"
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// TestSamePlanAgreesWithJSON pins samePlan to the comparison it replaced:
// two plans match exactly when their JSON encodings (nil as empty, an
// unencodable plan as nothing) are the same bytes — empty and nil plans,
// differing records, ±0 watts, and NaN or infinite watts on one or both
// sides.
func TestSamePlanAgreesWithJSON(t *testing.T) {
	jsonForm := func(recs []core.ActionRecord) string {
		if recs == nil {
			recs = []core.ActionRecord{}
		}
		b, err := json.Marshal(recs)
		if err != nil {
			return ""
		}
		return string(b)
	}
	level := core.ActionRecord{Kind: "set-level", Instance: "ASR_1", Stage: "ASR", From: 3, To: 5, Reason: "boost"}
	budget := func(from, to float64) core.ActionRecord {
		return core.ActionRecord{Kind: "set-budget", Node: "n1", FromW: cmp.Watts(from), ToW: cmp.Watts(to), Reason: "rebalance"}
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	plans := [][]core.ActionRecord{
		nil,
		{},
		{level},
		{level, level},
		{{Kind: "set-level", Instance: "ASR_1", Stage: "ASR", From: 3, To: 4, Reason: "boost"}},
		{budget(10, 12)},
		{budget(10, 12.5)},
		{budget(0, 12)},
		{budget(negZero, 12)},
		{budget(nan, 12)},
		{budget(10, nan)},
		{level, budget(inf, 12)},
		{budget(-inf, 12)},
	}
	for i, a := range plans {
		for j, b := range plans {
			want := jsonForm(a) == jsonForm(b)
			if got := samePlan(a, b); got != want {
				t.Errorf("plans %d and %d: samePlan = %v, JSON forms equal = %v (%v vs %v)", i, j, got, want, a, b)
			}
		}
	}
}
