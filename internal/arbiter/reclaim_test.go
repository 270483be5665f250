package arbiter

import (
	"fmt"
	"math/rand"
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// reclaimLedger is a fakeView as a Ledger; out marks the entries that
// cannot donate (quarantined, the returnee).
type reclaimLedger struct {
	*fakeView
	out []bool
}

func (l reclaimLedger) Len() int { return len(l.ctls) }

func (l reclaimLedger) Entry(i int) (core.NodeControl, cmp.Watts, bool) {
	return l.ctls[i], l.ctls[i].Budget(), !l.out[i]
}

// cut is one donor actuation: who, and the grant it was set to.
type cut struct {
	name string
	to   cmp.Watts
}

// shaveLoop is PlanReclaim's reference, actuating as it decides: while the
// headroom — recomputed from the ledger — is short of need, cut the richest
// donor above floor (the first on ties) to granted − (need − headroom),
// clamped at floor. ok is false on a shortfall.
func shaveLoop(l reclaimLedger, need cmp.Watts) (cuts []cut, ok bool) {
	for {
		headroom := l.Headroom()
		if headroom+1e-9 >= need {
			return cuts, true
		}
		var donor *fakeMemberCtl
		for i, m := range l.ctls {
			if l.out[i] {
				continue
			}
			if m.granted > l.floor+1e-9 && (donor == nil || m.granted > donor.granted) {
				donor = m
			}
		}
		if donor == nil {
			return cuts, false
		}
		target := max(donor.granted-(need-headroom), l.floor)
		if err := donor.SetBudget(target); err != nil {
			panic(err)
		}
		cuts = append(cuts, cut{donor.name, target})
	}
}

// randomLedger builds 1–12 members with seeded grants — some at or below the
// floor, some tied, some unable to donate — under a budget they fill up to a
// seeded held remainder. need is the floor or, half the time, a seeded grant
// above it (the harness re-admits at max(floor, parked draw)).
func randomLedger(seed int64) (l reclaimLedger, need cmp.Watts) {
	r := rand.New(rand.NewSource(seed))
	floor := cmp.Watts(1 + r.Intn(10))
	v := &fakeView{floor: floor, held: cmp.Watts(r.Float64() * 5)}
	n := 1 + r.Intn(12)
	var sum cmp.Watts
	for i := 0; i < n; i++ {
		g := floor * cmp.Watts(r.Float64()*4)
		if r.Intn(5) == 0 && i > 0 {
			g = v.ctls[r.Intn(i)].granted // a tie
		}
		v.ctls = append(v.ctls, &fakeMemberCtl{name: fmt.Sprintf("m%d", i), granted: g})
		l.out = append(l.out, r.Intn(6) == 0)
		sum += g
	}
	v.budget = sum + v.held + cmp.Watts(r.Float64()*float64(floor))
	l.fakeView = v
	need = floor
	if r.Intn(2) == 0 {
		need += cmp.Watts(r.Float64() * float64(floor))
	}
	return l, need
}

// TestPlanReclaimMatchesShaveLoop runs seeded random ledgers through
// PlanReclaim + Executor and through the reference loop: on every success
// path both cut the same donors in the same order to the same grants (to
// 1e-9 — the reference re-sums the ledger after each cut where the planner
// carries the headroom, so later cuts may differ in the last bits); no donor
// is cut below the floor; and a ledger that cannot cover the need is
// reported short by both.
func TestPlanReclaimMatchesShaveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shorts, multi := 0, 0
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Int63()
		ref, refNeed := randomLedger(seed)
		l, need := randomLedger(seed)
		want, ok := shaveLoop(ref, refNeed)

		plan, short := PlanReclaim(l, need, l.Headroom(), l.floor)
		if (short > 0) == ok {
			t.Fatalf("seed %d: PlanReclaim short %.3fW, reference ok=%v", seed, float64(short), ok)
		}
		for _, act := range plan.Actions {
			a := act.(*core.SetBudgetAction)
			if a.To < l.floor || a.To >= a.From || a.Reason != core.ReasonReadmit {
				t.Fatalf("seed %d: bad cut %s (reason %d, floor %.2f)", seed, a.Describe(), a.Reason, float64(l.floor))
			}
		}
		if !ok {
			shorts++
			continue
		}
		if res := (core.Executor{}).Apply(l, nil, plan); res.Err != nil {
			t.Fatalf("seed %d: apply: %v", seed, res.Err)
		}
		if len(plan.Actions) != len(want) {
			t.Fatalf("seed %d: %d cuts, reference %d: %s vs %v", seed, len(plan.Actions), len(want), plan.Describe(), want)
		}
		for i, act := range plan.Actions {
			a := act.(*core.SetBudgetAction)
			if a.Node.Name() != want[i].name || !wattsClose(a.To, want[i].to) {
				t.Fatalf("seed %d: cut %d is %s, reference %s→%.6fW", seed, i, a.Describe(), want[i].name, float64(want[i].to))
			}
		}
		if l.Headroom()+1e-9 < need {
			t.Fatalf("seed %d: headroom %.6fW after the cuts, need %.6fW", seed, float64(l.Headroom()), float64(need))
		}
		if len(want) > 1 {
			multi++
		}
	}
	if shorts == 0 || multi == 0 {
		t.Fatalf("%d short and %d multi-cut trials of 2000: the ledgers do not cover every path", shorts, multi)
	}
}

func wattsClose(a, b cmp.Watts) bool { return a-b < 1e-9 && b-a < 1e-9 }
