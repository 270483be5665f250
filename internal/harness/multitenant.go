package harness

import (
	"fmt"
	"slices"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// Tenant is one application sharing the chip under a multi-tenant budget
// hierarchy: its own stage pipeline, arrival process, QoS target and
// PowerChief control loop, powered by a grant carved out of the chip-level
// root domain.
type Tenant struct {
	Name string
	App  app.App

	// Instances is the initial per-stage instance count (nil = one each).
	Instances []int
	// Level is the initial uniform frequency level.
	Level cmp.Level
	// Cores is the tenant's chip partition size (default 8).
	Cores int

	// QoS is the tenant's latency target, the arbiter's per-member Target.
	// Zero means none: strategies then weight by the raw bottleneck metric.
	QoS time.Duration
	// Weight is the tenant's fairness entitlement (zero reads as 1).
	Weight float64

	// Policy constructs the tenant's control policy. Nil = PowerChief with
	// the default configuration.
	Policy func() core.Policy
	// AdjustInterval is the tenant loop's control period (default 25 s).
	AdjustInterval time.Duration
	// StatsWindow is the tenant aggregator's window (default: the adjust
	// interval).
	StatsWindow time.Duration

	// Source builds the tenant's arrival process from its reference
	// capacity. Nil defaults to a constant medium load.
	Source func(refCapacityQPS float64) workload.Source
	// RefInstances/RefLevel fix the capacity anchor (default: the initial
	// configuration), so every arbiter policy faces identical arrivals.
	RefInstances []int
	RefLevel     cmp.Level
}

// MultiScenario describes one multi-tenant experiment: several tenants
// under one chip-level budget, with an optional cross-app arbiter loop
// re-granting per-tenant budgets from QoS headroom each epoch.
type MultiScenario struct {
	Name    string
	Tenants []Tenant
	// Budget is the chip-level cap the root domain owns. Zero derives it
	// from the sum of the tenants' initial configuration draws.
	Budget cmp.Watts

	// Arbiter constructs the cross-app arbitration policy (an
	// arbiter.Planner over some Strategy). Nil runs the static baseline:
	// the initial split, frozen — equal halving for two equal tenants.
	Arbiter func() core.Policy
	// ArbiterInterval is the outer epoch (default: twice the largest tenant
	// adjust interval, so the arbiter sees settled per-app reactions).
	ArbiterInterval time.Duration
	// Floor is the minimum per-tenant grant. Zero derives the largest
	// all-cores-at-minimum draw across tenants, so a floored grant is
	// always actuatable by DVFS shedding alone.
	Floor cmp.Watts
	// Hysteresis suppresses re-grants smaller than this (default Floor/4).
	Hysteresis cmp.Watts

	// Duration is the load-generation horizon.
	Duration time.Duration
	// DrainFactor bounds the post-horizon drain (default 1).
	DrainFactor float64
	// Seed drives all randomness; tenant i derives seed Seed+i·1000003.
	Seed int64
	// SampleEvery controls trace sampling (default: the arbiter interval).
	SampleEvery time.Duration

	// Churn scripts tenant membership changes at virtual times: an evict
	// stops the tenant's arrivals and control loop, sheds its chip partition
	// to the minimum draw and returns its grant to the root's headroom; an
	// admit re-creates the domain with a grant of at least Floor (reclaiming
	// watts from the richest tenants if the arbiter has granted the headroom
	// away) and restarts the loop and the arrivals. Events fire in
	// virtual-time order; each must name a scenario tenant.
	Churn []ChurnEvent

	// Audit, when set, receives the arbiter's re-grant decisions and every
	// tenant policy's boost decisions (via core.AuditSetter).
	Audit *telemetry.AuditLog
	// Metrics, when set, gets per-tenant grant/draw/metric gauges and the
	// root domain's budget/granted gauges registered on it.
	Metrics *telemetry.Registry
}

// ChurnEvent is one scripted tenant membership change.
type ChurnEvent struct {
	// At is the virtual time the event fires; must fall inside the
	// generation horizon.
	At time.Duration
	// Tenant names the affected scenario tenant.
	Tenant string
	// Admit re-admits a previously evicted tenant; false evicts a running
	// one.
	Admit bool
}

// ChurnRecord is one applied churn event: the watts an eviction freed back
// to the root, or the grant a re-admission received (never below the
// scenario floor — the floor re-admission guarantee).
type ChurnRecord struct {
	At     time.Duration
	Tenant string
	Admit  bool
	Watts  cmp.Watts
}

// TenantResult carries one tenant's collected metrics.
type TenantResult struct {
	Name   string
	Policy string
	QoS    time.Duration

	Submitted uint64
	Completed uint64
	// Latency summarizes the tenant's end-to-end query latency.
	Latency *stats.Summary

	// InitialGrant/FinalGrant bracket the tenant's domain grant; AvgGrant
	// and AvgPower are time-averaged over the run.
	InitialGrant cmp.Watts
	FinalGrant   cmp.Watts
	AvgGrant     cmp.Watts
	AvgPower     cmp.Watts

	// Boosts tallies the tenant loop's decisions by kind.
	Boosts map[core.BoostKind]int
}

// MultiResult is the full record of one RunMulti.
type MultiResult struct {
	Scenario string
	// Arbiter names the arbitration policy, or "static-split".
	Arbiter string
	Budget  cmp.Watts

	// Floor is the effective minimum per-tenant grant (the scenario's, or
	// the derived all-cores-at-minimum draw) — the churn re-admission bound.
	Floor cmp.Watts

	Tenants []TenantResult
	// Combined pools every tenant's completed-query latencies — the
	// combined p99 the arbitration-vs-static comparison is scored on.
	Combined *stats.Summary

	// ArbiterEpochs counts successful outer epochs (0 for static).
	ArbiterEpochs uint64
	// Violations counts arbiter epochs after which Σ child grants exceeded
	// the root budget — the hierarchy invariant; must be 0.
	Violations int
	// MaxGranted is the largest Σ child grants observed after any epoch.
	MaxGranted cmp.Watts

	// Churn records the applied membership changes in firing order.
	Churn []ChurnRecord

	// Trace holds sampled series: "grant:<tenant>", "power:<tenant>",
	// "metric:<tenant>" (seconds), and "granted" (Σ child grants).
	Trace *stats.TimeSeries
}

// tenantRun is one tenant of a RunMulti: its placed chip, plus its grant
// in the budget hierarchy, its control loop and its run integrals.
type tenantRun struct {
	*appChip
	domain *core.BudgetDomain
	loop   *controlplane.Loop

	// evicted marks a tenant currently outside the hierarchy; boostTally
	// accumulates the boosts of loops stopped by evictions.
	evicted    bool
	boostTally map[core.BoostKind]int

	initialGrant  cmp.Watts
	powerIntegral float64 // watt-seconds
	grantIntegral float64 // watt-seconds
}

// minDraw is the tenant partition's all-instances-at-minimum draw — the
// power an evicted tenant keeps holding outside the ledger while parked.
func (r *tenantRun) minDraw(model cmp.PowerModel) cmp.Watts {
	var w cmp.Watts
	for _, st := range r.sys.Stages() {
		w += cmp.Watts(len(st.Active())) * model.MinPower()
	}
	return w
}

// appMetric is the tenant's end-to-end Equation 1 expected delay: for each
// stage the worst per-instance metric (the next query lands on some
// instance; the slowest bounds the stage), summed across the pipeline. The
// per-stage terms are the member's Breakdown.
func (r *tenantRun) appMetric() (time.Duration, []arbiter.StageMetric) {
	id := core.Identifier{Metric: core.MetricExpectedDelay}
	worst := make(map[string]time.Duration)
	for _, rk := range id.Rank(r.view, r.agg) {
		if rk.Metric > worst[rk.Stage.Name()] {
			worst[rk.Stage.Name()] = rk.Metric
		}
	}
	var total time.Duration
	stages := r.view.Stages()
	breakdown := make([]arbiter.StageMetric, 0, len(stages))
	for _, st := range stages {
		m := worst[st.Name()]
		breakdown = append(breakdown, arbiter.StageMetric{Stage: st.Name(), Metric: m})
		total += m
	}
	return total, breakdown
}

// shedToGrant makes a lowered grant physical on the chip partition: one
// core.PlanShed plan steps the highest-level instances down until the draw
// fits the new grant, the executor applies it, then the chip budget is re-set.
// An unshedable cut — the plan reaches the ladder floor still over the grant
// — leaves the partition at the floor and is an error, which the arbiter's
// executor turns into a plan rollback: the arbiter must not starve a tenant
// below its minimum draw. (The floor shed is kept because the benchmark's
// pinned des-paper digests record it.) Raised grants only lift the chip budget; spending the new headroom is
// deliberately left to the tenant's own PowerChief loop, which knows whether
// the next watt is worth more as a frequency step or an instance boost (the
// paper's Fig. 4 finding: at high load, instances beat frequency). The
// scenario's arbiter floor bounds how deep a cut can go, so an idle tenant is
// never more than a few frequency steps below base when load returns.
func (c *appChip) shedToGrant(w cmp.Watts) error {
	plan := &core.ActionPlan{}
	draw := core.PlanShed(plan, c.view.Stages(), c.chip.Model(), c.chip.Draw(), w, core.ReasonDeboost)
	if res := (core.Executor{}).Apply(c.view, nil, plan); res.Err != nil {
		return res.Err
	}
	if draw > w+1e-9 {
		return fmt.Errorf("harness: grant %.2fW below minimum draw %.2fW: %w",
			float64(w), float64(draw), cmp.ErrBudgetExceeded)
	}
	return c.chip.SetBudget(w)
}

// multiRun is one RunMulti in flight: the placed tenants under the root
// domain, their control group and the record being filled. Its methods are
// RunMulti's phases.
type multiRun struct {
	sc          MultiScenario
	eng         *sim.Engine
	model       cmp.PowerModel
	root        *core.BudgetDomain
	runs        []*tenantRun
	floor, hyst cmp.Watts
	group       *controlplane.Group
	arbLoop     *controlplane.Loop
	res         *MultiResult
	churnErr    error // the first failed churn event, reported after the horizon
	lastSample  time.Duration
}

// evict removes a tenant from the hierarchy mid-run: arrivals pause, the
// control loop stops (its boost tally is preserved), the chip partition is
// shed to its minimum draw — the power a parked partition keeps holding
// outside the ledger — and the domain's grant returns to the root's
// headroom. Returns the freed watts.
func (m *multiRun) evict(r *tenantRun) (cmp.Watts, error) {
	if r.evicted {
		return 0, fmt.Errorf("tenant %q is already evicted", r.spec.Name)
	}
	r.gen.Pause()
	r.loop.Stop()
	if err := r.shedToGrant(r.minDraw(m.model)); err != nil {
		return 0, fmt.Errorf("parking tenant %q: %w", r.spec.Name, err)
	}
	freed, err := m.root.Evict(r.spec.Name)
	if err != nil {
		return 0, fmt.Errorf("evicting tenant %q: %w", r.spec.Name, err)
	}
	r.evicted = true
	return freed, nil
}

// admit re-admits an evicted tenant: a fresh child domain with a grant of at
// least the scenario floor (or the parked partition's draw, if instance
// boosts grew it past the floor), a fresh control loop on the shared group,
// and resumed arrivals. When the arbiter has granted the headroom away, one
// arbiter.PlanReclaim plan over the running tenants' grants makes room first
// — richest first, never below the floor. This is the floor re-admission
// guarantee: the floor bounds both how deep a running tenant can be cut and
// how much a returning one is owed, so a hierarchy whose floors fit the
// budget can always take an evicted tenant back. Returns the grant.
func (m *multiRun) admit(r *tenantRun) (cmp.Watts, error) {
	if !r.evicted {
		return 0, fmt.Errorf("tenant %q is not evicted", r.spec.Name)
	}
	grant := max(m.floor, r.chip.Draw())
	view := tenantArbiterView{m}
	plan, short := arbiter.PlanReclaim(view, grant, m.root.Headroom(), m.floor)
	if short > 0 {
		return 0, fmt.Errorf("re-admitting tenant %q: %.2fW short of the %.2fW floor re-admission",
			r.spec.Name, float64(short), float64(grant))
	}
	if res := core.ApplyPlan(m.sc.Audit, view, view.Draw(), plan); res.Err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, res.Err)
	}
	dom, err := m.root.NewChild(r.spec.Name, grant, r.shedToGrant)
	if err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, err)
	}
	// NewChild does not actuate the initial grant; lift the parked chip's
	// budget to it so the tenant loop has headroom to spend again.
	if err := r.shedToGrant(grant); err != nil {
		return 0, fmt.Errorf("re-admitting tenant %q: %w", r.spec.Name, err)
	}
	r.domain = dom
	r.evicted = false
	// The stopped loop is about to be replaced; fold its boosts into the
	// tally so the final TenantResult spans every incarnation.
	if r.boostTally == nil {
		r.boostTally = make(map[core.BoostKind]int)
	}
	for k, v := range r.loop.Boosts() {
		r.boostTally[k] += v
	}
	if err := m.startLoop(r); err != nil {
		return 0, err
	}
	r.gen.Resume()
	return grant, nil
}

// tenantArbiterView is the arbiter's view of the root domain: the budget
// arithmetic comes from the domain ledger (Draw = Σ child grants, so the
// whole cap is distributable), the members are the tenants with their live
// Equation 1 metrics against their QoS targets.
type tenantArbiterView struct{ *multiRun }

func (v tenantArbiterView) Now() time.Duration               { return v.eng.Now() }
func (v tenantArbiterView) Stages() []core.StageControl      { return nil }
func (v tenantArbiterView) Quarantined() []core.StageControl { return nil }
func (v tenantArbiterView) PowerModel() cmp.PowerModel       { return v.model }
func (v tenantArbiterView) Budget() cmp.Watts                { return v.root.Budget() }
func (v tenantArbiterView) Draw() cmp.Watts                  { return v.root.Granted() }
func (v tenantArbiterView) Headroom() cmp.Watts              { return v.root.Headroom() }
func (v tenantArbiterView) FreeCores() int                   { return 0 }
func (v tenantArbiterView) Floor() cmp.Watts                 { return v.floor }
func (v tenantArbiterView) Hysteresis() cmp.Watts            { return v.hyst }

// Len and Entry implement arbiter.Ledger over the tenants' grants; an
// evicted tenant neither donates nor counts.
func (v tenantArbiterView) Len() int { return len(v.runs) }

func (v tenantArbiterView) Entry(i int) (core.NodeControl, cmp.Watts, bool) {
	r := v.runs[i]
	return r.domain, r.domain.Budget(), !r.evicted
}

func (v tenantArbiterView) Members() []arbiter.Member {
	out := make([]arbiter.Member, 0, len(v.runs))
	for _, r := range v.runs {
		if r.evicted {
			continue
		}
		metric, breakdown := r.appMetric()
		out = append(out, arbiter.Member{
			Control:   r.domain,
			Granted:   r.domain.Budget(),
			Metric:    metric,
			Target:    r.spec.QoS,
			Weight:    r.spec.Weight,
			Breakdown: breakdown,
		})
	}
	return out
}

// defaults fills in a tenant's unset per-app fields.
func (t *Tenant) defaults() {
	if t.Cores == 0 {
		t.Cores = 8
	}
	if t.AdjustInterval == 0 {
		t.AdjustInterval = 25 * time.Second
	}
	if t.StatsWindow == 0 {
		t.StatsWindow = t.AdjustInterval
	}
	if t.Weight == 0 {
		t.Weight = 1
	}
	if t.Instances == nil {
		t.Instances = make([]int, len(t.App.Stages))
		for j := range t.Instances {
			t.Instances[j] = 1
		}
	}
	if t.RefInstances == nil {
		t.RefInstances = t.Instances
	}
	if t.RefLevel == 0 {
		t.RefLevel = t.Level
	}
	if t.Policy == nil {
		t.Policy = func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }
	}
	if t.Source == nil {
		t.Source = ConstantLoad(workload.Medium)
	}
}

// defaults fills in unset scenario fields that do not depend on built state.
func (sc *MultiScenario) defaults() {
	var maxAdjust time.Duration
	for i := range sc.Tenants {
		sc.Tenants[i].defaults()
		maxAdjust = max(maxAdjust, sc.Tenants[i].AdjustInterval)
	}
	if sc.ArbiterInterval == 0 {
		sc.ArbiterInterval = 2 * maxAdjust
	}
	if sc.SampleEvery == 0 {
		sc.SampleEvery = sc.ArbiterInterval
	}
}

// validate rejects a scenario before anything is built.
func (sc *MultiScenario) validate() error {
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("harness: multi-tenant scenario %q needs tenants", sc.Name)
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("harness: scenario %q needs a positive duration", sc.Name)
	}
	for i := range sc.Tenants {
		if err := sc.Tenants[i].App.Validate(); err != nil {
			return fmt.Errorf("harness: tenant %q: %w", sc.Tenants[i].Name, err)
		}
	}
	for _, ev := range sc.Churn {
		if !slices.ContainsFunc(sc.Tenants, func(t Tenant) bool { return t.Name == ev.Tenant }) {
			return fmt.Errorf("harness: churn event names unknown tenant %q", ev.Tenant)
		}
		if ev.At <= 0 || ev.At >= sc.Duration {
			return fmt.Errorf("harness: churn event for %q at %v outside the (0, %v) horizon",
				ev.Tenant, ev.At, sc.Duration)
		}
	}
	return nil
}

// RunMulti executes the multi-tenant scenario: one DES engine, one chip
// budget lifted into a root BudgetDomain, one child domain (with its own
// chip partition, pipeline and unmodified PowerChief loop) per tenant, and
// — unless Arbiter is nil — an outer arbiter loop re-granting the split
// every epoch through the validating, rolling-back executor.
//
// The nested loops share the engine clock through a controlplane.Group with
// the arbiter registered first, so when an arbiter epoch coincides with
// tenant epochs the fresh grants land before the tenants react — the
// determinism contract that makes a run byte-reproducible. After every
// arbiter epoch the hierarchy invariant (Σ child grants ≤ chip budget) is
// checked and violations are counted; a correct run reports zero.
func RunMulti(sc MultiScenario) (*MultiResult, error) {
	sc.defaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	m, err := placeTenants(sc, eng)
	if err != nil {
		return nil, err
	}
	// Load generators, one per tenant, each with a deterministic derived seed.
	for i, r := range m.runs {
		r.start(sc.Seed+int64(i)*1000003, sc.Duration)
	}
	if err := m.startControl(); err != nil {
		return nil, err
	}
	m.scheduleChurn()
	// Sampler: registered after every loop, so equal-timestamp samples see
	// the post-adjust state.
	stopSample := eng.Every(sc.SampleEvery, m.sample)
	if sc.Metrics != nil {
		registerTenantMetrics(sc.Metrics, m.root, m.runs)
	}

	// Generation horizon, then drain every tenant, stepping at the shortest
	// tenant interval.
	step := sc.Tenants[0].AdjustInterval
	for _, t := range sc.Tenants {
		step = min(step, t.AdjustInterval)
	}
	runHorizon(eng, sc.Duration, sc.DrainFactor, step, m.drained)
	m.group.Stop()
	stopSample()
	return m.result()
}

// placeTenants derives the budget, floor and hysteresis from the tenants'
// initial draws and places each tenant on eng under a child of the
// chip-level root. The initial split: each tenant's configuration draw, plus
// the weight-proportional share of the leftover headroom. Equal tenants get
// equal halves — the static-halving baseline the arbiter is scored against.
func placeTenants(sc MultiScenario, eng *sim.Engine) (*multiRun, error) {
	m := &multiRun{sc: sc, eng: eng, model: cmp.DefaultModel(), floor: sc.Floor, hyst: sc.Hysteresis}
	specs := make([][]stage.Spec, len(sc.Tenants))
	draws := make([]cmp.Watts, len(sc.Tenants))
	var totalDraw, sumWeight cmp.Watts
	for i, t := range sc.Tenants {
		var err error
		if specs[i], err = t.App.Specs(t.Instances, t.Level); err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", t.Name, err)
		}
		var minDraw cmp.Watts
		draws[i], minDraw = configDraw(specs[i], m.model)
		totalDraw += draws[i]
		sumWeight += cmp.Watts(t.Weight)
		if sc.Floor == 0 && minDraw > m.floor {
			m.floor = minDraw
		}
	}
	budget := sc.Budget
	if budget == 0 {
		budget = totalDraw
	}
	if budget < totalDraw-1e-9 {
		return nil, fmt.Errorf("harness: scenario %q: budget %.2fW below the %.2fW initial draw",
			sc.Name, float64(budget), float64(totalDraw))
	}
	if m.hyst == 0 {
		m.hyst = m.floor / 4
	}
	m.root = core.NewRootDomain("chip", budget)
	m.res = &MultiResult{
		Scenario: sc.Name,
		Arbiter:  "static-split",
		Budget:   budget,
		Floor:    m.floor,
		Combined: stats.NewSummary(),
		Trace:    stats.NewTimeSeries(),
	}
	combined := m.res.Combined
	for i, t := range sc.Tenants {
		grant := draws[i] + (budget-totalDraw)*cmp.Watts(t.Weight)/sumWeight
		c, err := newAppChip(eng, t, specs[i], grant)
		if err != nil {
			return nil, err
		}
		c.sys.OnComplete(func(q *query.Query) { combined.Observe(q.Latency()) })
		r := &tenantRun{appChip: c, initialGrant: grant}
		if r.domain, err = m.root.NewChild(t.Name, grant, c.shedToGrant); err != nil {
			return nil, fmt.Errorf("harness: tenant %q: %w", t.Name, err)
		}
		m.runs = append(m.runs, r)
	}
	return m, nil
}

// startControl starts the nested loops on one group on the engine clock,
// arbiter first: fresh grants land before tenants react at coinciding epochs.
func (m *multiRun) startControl() error {
	var err error
	if m.group, err = controlplane.NewGroup(controlplane.SimClock(m.eng)); err != nil {
		return err
	}
	if m.sc.Arbiter != nil {
		policy := m.sc.Arbiter()
		m.res.Arbiter = policy.Name()
		m.arbLoop, err = m.group.Go(controlplane.NewAdjuster(tenantArbiterView{m}, nil), controlplane.Options{
			Policy:    policy,
			Interval:  m.sc.ArbiterInterval,
			Audit:     m.sc.Audit,
			OnOutcome: func(core.BoostOutcome) { m.checkInvariant() },
			OnError:   func(error) { m.checkInvariant() },
		})
		if err != nil {
			return fmt.Errorf("harness: %q arbiter loop: %w", m.sc.Name, err)
		}
	}
	for _, r := range m.runs {
		if err := m.startLoop(r); err != nil {
			return err
		}
	}
	return nil
}

// startLoop starts a tenant's PowerChief loop on the group: at placement,
// and again at every re-admission.
func (m *multiRun) startLoop(r *tenantRun) (err error) {
	r.loop, err = m.group.Go(controlplane.NewAdjuster(r.view, r.agg), controlplane.Options{
		Policy:   r.policy,
		Interval: r.spec.AdjustInterval,
		Audit:    m.sc.Audit,
	})
	if err != nil {
		return fmt.Errorf("harness: tenant %q loop: %w", r.spec.Name, err)
	}
	return nil
}

// checkInvariant counts a broken hierarchy invariant and tracks the largest
// Σ child grants.
func (m *multiRun) checkInvariant() {
	if err := m.root.CheckInvariant(); err != nil {
		m.res.Violations++
	}
	m.res.MaxGranted = max(m.res.MaxGranted, m.root.Granted())
}

// scheduleChurn arms the scripted membership changes, validated upfront, as
// engine events. A failure inside an event cannot return, so the first one
// is kept and fails the whole run after the horizon.
func (m *multiRun) scheduleChurn() {
	byName := make(map[string]*tenantRun, len(m.runs))
	for _, r := range m.runs {
		byName[r.spec.Name] = r
	}
	for _, ev := range m.sc.Churn {
		r := byName[ev.Tenant]
		m.eng.ScheduleAt(ev.At, func() {
			var watts cmp.Watts
			var err error
			if ev.Admit {
				watts, err = m.admit(r)
			} else {
				watts, err = m.evict(r)
			}
			if err != nil {
				if m.churnErr == nil {
					m.churnErr = fmt.Errorf("at %v: %w", ev.At, err)
				}
				return
			}
			m.res.Churn = append(m.res.Churn, ChurnRecord{
				At: m.eng.Now(), Tenant: ev.Tenant, Admit: ev.Admit, Watts: watts,
			})
			m.checkInvariant()
		})
	}
}

// sample records every tenant's grant, draw and metric and the Σ of grants,
// and integrates draw and grant for the run averages.
func (m *multiRun) sample() {
	now := m.eng.Now()
	dt := (now - m.lastSample).Seconds()
	m.lastSample = now
	for _, r := range m.runs {
		grant := r.domain.Budget()
		r.powerIntegral += float64(r.chip.Draw()) * dt
		r.grantIntegral += float64(grant) * dt
		m.res.Trace.Record("grant:"+r.spec.Name, now, float64(grant))
		m.res.Trace.Record("power:"+r.spec.Name, now, float64(r.chip.Draw()))
		metric, _ := r.appMetric()
		m.res.Trace.Record("metric:"+r.spec.Name, now, metric.Seconds())
	}
	m.res.Trace.Record("granted", now, float64(m.root.Granted()))
}

// drained reports whether every tenant's pipeline is empty.
func (m *multiRun) drained() bool {
	for _, r := range m.runs {
		if !r.sys.Drain() {
			return false
		}
	}
	return true
}

// result closes the record: the churn error if any, the arbiter's epochs,
// every tenant's tallies and averages, and the chip and domain invariants
// the run must end with.
func (m *multiRun) result() (*MultiResult, error) {
	if m.churnErr != nil {
		return nil, fmt.Errorf("harness: %q churn: %w", m.sc.Name, m.churnErr)
	}
	if m.arbLoop != nil {
		m.res.ArbiterEpochs = m.arbLoop.Total()
	}
	horizon := m.lastSample.Seconds()
	for _, r := range m.runs {
		boosts := r.loop.Boosts()
		for k, v := range r.boostTally {
			boosts[k] += v
		}
		tr := TenantResult{
			Name:         r.spec.Name,
			Policy:       r.policy.Name(),
			QoS:          r.spec.QoS,
			Submitted:    r.sys.Submitted(),
			Completed:    r.sys.Completed(),
			Latency:      r.latency,
			InitialGrant: r.initialGrant,
			FinalGrant:   r.domain.Budget(),
			Boosts:       boosts,
		}
		tr.AvgPower, tr.AvgGrant = r.chip.Draw(), tr.FinalGrant
		if horizon > 0 {
			tr.AvgPower = cmp.Watts(r.powerIntegral / horizon)
			tr.AvgGrant = cmp.Watts(r.grantIntegral / horizon)
		}
		m.res.Tenants = append(m.res.Tenants, tr)
		if err := r.chip.CheckInvariant(); err != nil {
			return nil, fmt.Errorf("harness: tenant %q ended with a broken chip invariant: %w", r.spec.Name, err)
		}
		if err := r.checkRecords(); err != nil {
			return nil, err
		}
	}
	if err := m.root.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("harness: %q ended with a broken domain invariant: %w", m.sc.Name, err)
	}
	return m.res, nil
}

// registerTenantMetrics exposes the hierarchy on a telemetry registry:
// per-tenant grant, draw and bottleneck-metric gauges plus the root
// domain's budget and granted sums.
func registerTenantMetrics(reg *telemetry.Registry, root *core.BudgetDomain, runs []*tenantRun) {
	reg.GaugeFunc("powerchief_domain_budget_watts",
		"chip-level root domain budget", func() float64 { return float64(root.Budget()) })
	reg.GaugeFunc("powerchief_domain_granted_watts",
		"sum of per-tenant grants", func() float64 { return float64(root.Granted()) })
	for _, r := range runs {
		r := r
		name := telemetry.SanitizeName(r.spec.Name)
		reg.GaugeFunc("powerchief_tenant_grant_watts_"+name,
			"tenant's current budget grant", func() float64 { return float64(r.domain.Budget()) })
		reg.GaugeFunc("powerchief_tenant_draw_watts_"+name,
			"tenant's current chip draw", func() float64 { return float64(r.chip.Draw()) })
		reg.GaugeFunc("powerchief_tenant_metric_seconds_"+name,
			"tenant's end-to-end expected delay (Equation 1)", func() float64 {
				m, _ := r.appMetric()
				return m.Seconds()
			})
	}
}

// BenchTenantScenario is the recorded multi-tenant benchmark: Sirius riding
// a diurnal cycle and NLP hit by a flash crowd, their peaks offset so the
// chip is never short of watts overall — only ever in the wrong tenant's
// hands. A static halving strands the idle tenant's headroom exactly when
// the other peaks; the arbiter re-grants it. Pass Arbiter (or leave nil for
// the static baseline) on the returned scenario.
func BenchTenantScenario(seed int64) MultiScenario {
	return MultiScenario{
		Name: "multitenant-sirius-nlp",
		Tenants: []Tenant{
			{
				Name: "sirius", App: app.Sirius(),
				Instances: []int{1, 1, 2}, Level: 6,
				QoS: 2 * time.Second,
				Source: func(capacity float64) workload.Source {
					// Crest at t = 100 s, trough around t = 300 s. The crest
					// stays below capacity so this tenant is never the
					// structural bottleneck: at any seed, the combined tail
					// is owned by the flash tenant, and the watts stranded
					// here during the trough are what arbitration moves.
					d, err := workload.NewDiurnal(0.2*capacity, 0.8*capacity, 400*time.Second)
					if err != nil {
						panic(err) // static construction cannot fail
					}
					return d
				},
			},
			{
				Name: "nlp", App: app.NLP(),
				Instances: []int{1, 2, 1}, Level: 6,
				QoS: 1500 * time.Millisecond,
				Source: func(capacity float64) workload.Source {
					// One 120 s flash crowd landing inside the diurnal
					// tenant's trough: the chip as a whole has the watts, the
					// static split has them in the wrong tenant's hands.
					tr, err := workload.NewTrace(
						workload.Phase{Until: 260 * time.Second, Rate: 0.3 * capacity},
						workload.Phase{Until: 380 * time.Second, Rate: 2 * capacity},
						workload.Phase{Until: 10000 * time.Second, Rate: 0.3 * capacity},
					)
					if err != nil {
						panic(err) // static construction cannot fail
					}
					return tr
				},
			},
		},
		ArbiterInterval: 25 * time.Second,
		// A high floor bounds how deep any single tenant can be cut. Cuts
		// actuate instantly (DVFS shed) but recovery takes the tenant loop
		// several epochs of re-boosting, so shallow cuts keep a mistimed
		// re-grant recoverable while still moving ~4 W to the hot tenant.
		Floor:      14,
		Hysteresis: 1,
		Duration:   600 * time.Second,
		Seed:       seed,
	}
}
