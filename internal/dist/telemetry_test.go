package dist

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/telemetry"
)

// The acceptance scenario for the decision audit log: a chaos run that kills
// one stage must leave a timeline showing the quarantine (with the watts it
// reclaimed), the boost decisions the policy funded with them afterwards, and
// the re-admission — all retrievable over the /debug/decisions endpoint.
func TestChaosKillAuditTimelineRetrievableOverHTTP(t *testing.T) {
	audit := telemetry.NewAuditLog(0)
	opts := chaosOptions()
	opts.Audit = audit
	center, _, proxies := startChaosPipeline(t, opts)
	feedQueries(t, center, 5)

	// The policy records every tick into the audit log and a frame tap. Its
	// first tick, before the kill, is balanced by an hour-wide threshold: an
	// identification and nothing else.
	cfg := core.DefaultConfig()
	cfg.BalanceThreshold = time.Hour
	ctl := core.NewFreqBoost(cfg)
	ctl.SetAudit(audit)
	frames := &frameTap{}
	ctl.SetTap(frames)
	if _, err := center.Adjust(ctl); err != nil {
		t.Fatalf("Adjust before the kill: %v", err)
	}

	// Kill the middle stage and spend the failure budget.
	proxies[1].Kill()
	work := [][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}}
	for i := 0; i < opts.SuspectAfter+1 && len(center.Quarantined()) == 0; i++ {
		center.Submit(work)
	}
	if got := len(center.Quarantined()); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}

	// The policy interval after the kill: a survivor boost funded by the
	// reclaimed watts, recorded through the policy's attached audit log.
	ctl.Cfg.BalanceThreshold = 0
	out, err := center.Adjust(ctl)
	if err != nil {
		t.Fatalf("degraded Adjust: %v", err)
	}
	if out.Kind != core.BoostFrequency {
		t.Fatalf("degraded Adjust outcome = %v, want a frequency boost", out.Kind)
	}

	events := audit.Events()
	var quarantine *telemetry.Event
	for i := range events {
		if events[i].Kind == telemetry.EventStageQuarantine {
			quarantine = &events[i]
			break
		}
	}
	if quarantine == nil {
		t.Fatalf("no quarantine event in the timeline: %+v", events)
	}
	if quarantine.Stage != "IMM" {
		t.Errorf("quarantine names stage %q, want IMM", quarantine.Stage)
	}
	if quarantine.ReclaimedWatts <= 0 {
		t.Errorf("quarantine reclaimed %vW, want > 0", quarantine.ReclaimedWatts)
	}
	if quarantine.HeadroomWatts <= 0 {
		t.Errorf("headroom after quarantine = %vW, want > 0", quarantine.HeadroomWatts)
	}
	// The quarantine joins the tick it followed.
	if len(frames.recs) != 2 || frames.recs[0].Tick != 1 || frames.recs[1].Tick != 2 {
		t.Fatalf("recorded frames %+v, want ticks 1 and 2", frames.recs)
	}
	if quarantine.Tick != 1 {
		t.Errorf("quarantine carries tick %d, want 1 — the tick before the kill", quarantine.Tick)
	}
	// The boost decision comes after the quarantine in the timeline and was
	// funded by its reclaimed headroom.
	boosted := false
	for _, e := range events {
		if e.Kind == telemetry.EventBoostFreq && e.Seq > quarantine.Seq {
			boosted = true
			if e.NewLevel <= e.OldLevel {
				t.Errorf("boost event levels %d->%d, want a raise", e.OldLevel, e.NewLevel)
			}
			// The boost is rendered from the frame that identified it.
			joined := false
			for _, f := range frames.recs {
				joined = joined || f.Tick == e.Tick && f.Identified != nil && f.Identified.Instance == e.Instance
			}
			if !joined {
				t.Errorf("boost of %s at tick %d joins no frame identifying it: %+v", e.Instance, e.Tick, frames.recs)
			}
		}
	}
	if !boosted {
		t.Errorf("no boost-freq event after the quarantine: %+v", events)
	}

	// The same timeline is served by /debug/decisions.
	h := telemetry.Handler(nil, audit, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decisions", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/decisions status = %d", rec.Code)
	}
	var body struct {
		LastSeq uint64            `json:"last_seq"`
		Events  []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/decisions body: %v", err)
	}
	if body.LastSeq != audit.LastSeq() {
		t.Errorf("endpoint last_seq = %d, want %d", body.LastSeq, audit.LastSeq())
	}
	served := map[telemetry.EventKind]bool{}
	for _, e := range body.Events {
		served[e.Kind] = true
	}
	if !served[telemetry.EventStageQuarantine] || !served[telemetry.EventBoostFreq] {
		t.Errorf("endpoint timeline missing quarantine/boost events: %v", served)
	}

	// Heal the stage: the re-admission closes the timeline.
	proxies[1].Restore("")
	readmitted := false
	for i := 0; i < 40 && !readmitted; i++ {
		center.ProbeNow()
		readmitted = len(center.Quarantined()) == 0
		if !readmitted {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !readmitted {
		t.Fatalf("stage never re-admitted; healths: %+v", center.Healths())
	}
	// The boosted survivor held the reclaimed watts, so the re-admission shed
	// the returning stage's own level and then deboosted the survivor — every
	// step audited as a deboost with detail "readmit", ahead of the readmit.
	found, ownShed, survivorShed := false, false, false
	for _, e := range audit.Since(quarantine.Seq) {
		switch e.Kind {
		case telemetry.EventStageReadmit:
			found = found || e.Stage == "IMM"
		case telemetry.EventDeboost:
			if e.Detail != "readmit" || found {
				continue
			}
			if e.Tick != 2 {
				t.Errorf("re-admission step %s carries tick %d, want the last tick, 2", e.Instance, e.Tick)
			}
			ownShed = ownShed || e.Stage == "IMM"
			survivorShed = survivorShed || e.Stage != "IMM"
		}
	}
	if !found {
		t.Errorf("no re-admit event after recovery: %+v", audit.Since(quarantine.Seq))
	}
	if !ownShed || !survivorShed {
		t.Errorf("re-admission deboosts audited: own stage %v, survivor %v; want both: %+v",
			ownShed, survivorShed, audit.Since(quarantine.Seq))
	}
}

// A tracer attached to the center observes completed distributed queries and
// materializes per-instance spans from the query-carried records — at every
// stat-batch size, because the records it reads are a side channel of their
// own: they never reach the aggregator, whose per-instance windows fill from
// the deltas alone.
func TestCenterTracerObservesDistributedQueries(t *testing.T) {
	const n = 4
	for _, batch := range []int{0, 1, 64} {
		tracer := telemetry.NewTracer(telemetry.TracerOptions{Sample: 1})
		opts := chaosOptions()
		opts.Tracer, opts.IngestBatch, opts.IngestInterval = tracer, batch, time.Hour
		center, _, _ := startChaosPipeline(t, opts)
		feedQueries(t, center, n)

		seen, kept, _ := tracer.Stats()
		if seen != n || kept != n {
			t.Fatalf("batch %d: tracer saw %d / kept %d, want %d/%d", batch, seen, kept, n, n)
		}
		traces := tracer.Traces()
		if len(traces) != n {
			t.Fatalf("batch %d: traces = %d, want %d", batch, len(traces), n)
		}
		for _, tr := range traces {
			if tr.Latency <= 0 {
				t.Errorf("batch %d: trace %d latency = %v", batch, tr.ID, tr.Latency)
			}
			// One queue + one serve span per pipeline stage.
			if len(tr.Spans) != 6 {
				t.Errorf("batch %d: trace %d has %d spans, want 6", batch, tr.ID, len(tr.Spans))
			}
			stages := map[string]bool{}
			for _, sp := range tr.Spans {
				if sp.Instance == "" || sp.Stage == "" {
					t.Errorf("batch %d: trace %d span missing identity: %+v", batch, tr.ID, sp)
				}
				stages[sp.Stage] = true
			}
			for _, want := range []string{"ASR", "IMM", "QA"} {
				if !stages[want] {
					t.Errorf("batch %d: trace %d has no span for stage %s", batch, tr.ID, want)
				}
			}
		}

		// The records were counted as trace traffic and went to the tracer
		// only: below the batch size no delta has been flushed yet, so the
		// aggregator must not know the instances; one refresh later it holds
		// each completion once.
		if _, _, records, _ := center.IngestCounts(); records != 3*n {
			t.Errorf("batch %d: %d trace records received, want %d", batch, records, 3*n)
		}
		if _, _, ok := center.Aggregator().InstStats("QA_1"); ok != (batch == 1) {
			t.Errorf("batch %d: aggregator has QA_1 statistics before a flush: %v (records must never reach it)", batch, ok)
		}
		if _, err := center.Adjust(core.NewFreqBoost(core.DefaultConfig())); err != nil {
			t.Fatal(err)
		}
		if _, deltaQueries, _, _ := center.IngestCounts(); deltaQueries != 3*n {
			t.Errorf("batch %d: deltas summarize %d stage completions, want %d", batch, deltaQueries, 3*n)
		}
		if _, s, ok := center.Aggregator().InstStats("QA_1"); !ok || s <= 0 {
			t.Errorf("batch %d: no QA_1 statistics after a refresh", batch)
		}
		if got := center.Aggregator().Ingested(); got != n {
			t.Errorf("batch %d: aggregator ingested %d queries, want %d", batch, got, n)
		}
	}
}

// A suspect stage answering again is not a re-admission: the audit trail's
// re-admits must equal powerchief_stage_readmissions_total.
func TestSuspectClearedIsNoReadmitEvent(t *testing.T) {
	audit := telemetry.NewAuditLog(0)
	opts := chaosOptions()
	opts.Audit = audit
	center, _, _ := startChaosPipeline(t, opts)
	st := center.stages[1]
	st.noteFailure(errors.New("one lost reply"))
	st.noteSuccess()

	kinds := map[telemetry.EventKind]int{}
	for _, e := range audit.Events() {
		kinds[e.Kind]++
	}
	if kinds[telemetry.EventStageSuspect] != 1 || kinds[telemetry.EventStageReadmit] != 0 {
		t.Errorf("audit kinds %v, want one stage-suspect and no stage-readmit", kinds)
	}
	if q, r := center.QuarantineCounts(); q != 0 || r != 0 {
		t.Errorf("QuarantineCounts = (%d, %d), want (0, 0)", q, r)
	}
	if h := st.Health(); h != fault.Healthy {
		t.Errorf("stage health = %v after answering again, want healthy", h)
	}
}

// frameTap keeps every decision record a policy hands it. (The package
// cannot import replay's Recorder: replay reaches dist through loadgen.)
type frameTap struct{ recs []core.DecisionRecord }

func (t *frameTap) RecordDecision(rec core.DecisionRecord) { t.recs = append(t.recs, rec) }
