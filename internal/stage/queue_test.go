package stage

import (
	"fmt"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
)

// enqueueAt puts a one-stage query straight into in's queue at time at,
// bypassing the dispatcher so a test controls which instance holds what.
func enqueueAt(eng *sim.Engine, in *Instance, id query.ID, at, work time.Duration) *query.Query {
	q := query.New(id, at, [][]time.Duration{{work}})
	eng.ScheduleAt(at, func() { in.enqueue(q) })
	return q
}

// checkNoDeadReferences asserts the FIFO invariant: every slot of the
// backing array outside the live region queue[head:] is zero, and so is the
// serving slot of an idle instance — a served query is reachable from
// neither.
func checkNoDeadReferences(t *testing.T, in *Instance) {
	t.Helper()
	backing := in.queue[:cap(in.queue)]
	for i, slot := range backing {
		live := i >= in.head && i < len(in.queue)
		if !live && slot != (queued{}) {
			t.Errorf("%s: slot %d outside live region [%d,%d) still holds query %d", in.name, i, in.head, len(in.queue), slot.q.ID)
		}
		if live && slot.q == nil {
			t.Errorf("%s: live slot %d is empty", in.name, i)
		}
	}
	if !in.inService && in.serving != (queued{}) {
		t.Errorf("%s: idle instance still holds query %d in its serving slot", in.name, in.serving.q.ID)
	}
}

func waitingIDs(in *Instance) string {
	var ids []query.ID
	for _, item := range in.queue[in.head:] {
		ids = append(ids, item.q.ID)
	}
	return fmt.Sprint(ids)
}

func recordOn(t *testing.T, q *query.Query, instance string) query.Record {
	t.Helper()
	if len(q.Records) != 1 || q.Records[0].Instance != instance {
		t.Fatalf("query %d records = %+v, want one record on %s", q.ID, q.Records, instance)
	}
	return q.Records[0]
}

// backlogPastCompaction drives src to the state the queue tests start
// from: eight queries at t=1s fill the 8-slot array, four are served, two
// late arrivals force the in-place compaction, and one more completion
// moves the head off slot zero again. At t=1.55s query 5 is in service and
// 6, 7, 8, 9 wait, the last two enqueued at 1.45s and 1.46s.
func backlogPastCompaction(t *testing.T, eng *sim.Engine, src *Instance) []*query.Query {
	t.Helper()
	var qs []*query.Query
	for i := 0; i < 8; i++ {
		qs = append(qs, enqueueAt(eng, src, query.ID(i), time.Second, 100*time.Millisecond))
	}
	qs = append(qs, enqueueAt(eng, src, 8, 1450*time.Millisecond, 100*time.Millisecond))
	qs = append(qs, enqueueAt(eng, src, 9, 1460*time.Millisecond, 100*time.Millisecond))

	eng.RunUntil(1455 * time.Millisecond)
	if src.head != 4 || len(src.queue) != 8 || cap(src.queue) != 8 {
		t.Fatalf("before compaction: head=%d len=%d cap=%d, want 4 8 8", src.head, len(src.queue), cap(src.queue))
	}
	eng.RunUntil(1460 * time.Millisecond)
	if src.head != 0 || len(src.queue) != 5 || cap(src.queue) != 8 {
		t.Fatalf("after compaction: head=%d len=%d cap=%d, want 0 5 8 (moved in place, not grown)", src.head, len(src.queue), cap(src.queue))
	}
	checkNoDeadReferences(t, src)
	eng.RunUntil(1550 * time.Millisecond)
	if src.head != 1 || waitingIDs(src) != "[6 7 8 9]" {
		t.Fatalf("at 1.55s: head=%d waiting=%s, want 1 [6 7 8 9]", src.head, waitingIDs(src))
	}
	checkNoDeadReferences(t, src)
	return qs
}

func TestCloneStealsLiveTailAfterCompaction(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	st := sys.Stage("A")
	src := st.Instances()[0]
	qs := backlogPastCompaction(t, eng, src)

	clone, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	// Four wait → the tail two move; the clone starts query 8 at once.
	if waitingIDs(src) != "[6 7]" {
		t.Errorf("src keeps %s, want [6 7]", waitingIDs(src))
	}
	if !clone.inService || clone.serving.q.ID != 8 || waitingIDs(clone) != "[9]" {
		t.Errorf("clone serves %v and holds %s, want 8 and [9]", clone.serving.q, waitingIDs(clone))
	}
	checkNoDeadReferences(t, src)
	checkNoDeadReferences(t, clone)

	eng.Run()
	// The stolen queries were enqueued at 1.45s and 1.46s on src; the steal
	// at 1.55s must not restart their queuing clocks.
	r8, r9 := recordOn(t, qs[8], clone.Name()), recordOn(t, qs[9], clone.Name())
	if r8.QueueEnter != 1450*time.Millisecond || r8.ServeStart != 1550*time.Millisecond {
		t.Errorf("query 8: enter %v start %v, want 1.45s 1.55s", r8.QueueEnter, r8.ServeStart)
	}
	if r9.QueueEnter != 1460*time.Millisecond || r9.ServeStart != 1650*time.Millisecond {
		t.Errorf("query 9: enter %v start %v, want 1.46s 1.65s", r9.QueueEnter, r9.ServeStart)
	}
	for _, q := range qs[:8] {
		recordOn(t, q, src.Name())
	}
	checkNoDeadReferences(t, src)
	checkNoDeadReferences(t, clone)
}

func TestWithdrawRedirectsOnlyLiveEntries(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	st := sys.Stage("A")
	victim, survivor := st.Instances()[0], st.Instances()[1]
	qs := backlogPastCompaction(t, eng, victim)

	if err := st.Withdraw(victim, survivor); err != nil {
		t.Fatal(err)
	}
	// The served slot ahead of the head does not travel: the survivor gets
	// 6, 7, 8, 9 and nothing else, and starts on 6 at once.
	if !survivor.inService || survivor.serving.q.ID != 6 || waitingIDs(survivor) != "[7 8 9]" {
		t.Errorf("survivor serves %v and holds %s, want 6 and [7 8 9]", survivor.serving.q, waitingIDs(survivor))
	}
	if victim.waiting() != 0 || victim.queue != nil {
		t.Errorf("victim keeps %d queued queries and a %d-slot array after the redirect", victim.waiting(), cap(victim.queue))
	}
	checkNoDeadReferences(t, survivor)

	eng.Run()
	if !victim.Retired() {
		t.Error("victim did not retire after its in-flight query")
	}
	recordOn(t, qs[5], victim.Name())
	for i, enter := range map[int]time.Duration{6: time.Second, 7: time.Second, 8: 1450 * time.Millisecond, 9: 1460 * time.Millisecond} {
		if r := recordOn(t, qs[i], survivor.Name()); r.QueueEnter != enter {
			t.Errorf("query %d: QueueEnter %v after the redirect, want the original %v", i, r.QueueEnter, enter)
		}
	}
	checkNoDeadReferences(t, survivor)
	checkNoDeadReferences(t, victim)
}

func TestStandingQueueGrowsInsteadOfCompacting(t *testing.T) {
	// A long queue with a short served prefix must grow, not shuffle its
	// whole live region forward on every arrival.
	eng, sys := newSys(t, oneStage("A", 1, flat))
	in := sys.Stage("A").Instances()[0]
	for i := 0; i < 9; i++ {
		enqueueAt(eng, in, query.ID(i), time.Second, 100*time.Millisecond)
	}
	eng.RunUntil(1150 * time.Millisecond) // 1 served, 1 in service, 7 wait
	if in.head != 1 || len(in.queue) != 8 || cap(in.queue) != 8 {
		t.Fatalf("head=%d len=%d cap=%d, want 1 8 8 (array full)", in.head, len(in.queue), cap(in.queue))
	}
	in.enqueue(query.New(9, eng.Now(), [][]time.Duration{{100 * time.Millisecond}}))
	if in.head != 1 || cap(in.queue) <= 8 {
		t.Fatalf("head=%d cap=%d: a queue with one served slot of eight compacted instead of growing", in.head, cap(in.queue))
	}
	checkNoDeadReferences(t, in)
	eng.Run()
	if in.Served() != 10 {
		t.Errorf("served %d, want 10", in.Served())
	}
	checkNoDeadReferences(t, in)
}

func TestActiveSetFollowsMembership(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	st := sys.Stage("A")
	names := func(ins []*Instance) string {
		var out []string
		for _, in := range ins {
			out = append(out, in.name)
		}
		return fmt.Sprint(out)
	}
	if got := names(st.ActiveSet()); got != "[A_1 A_2]" {
		t.Fatalf("active set = %s, want [A_1 A_2]", got)
	}
	// Active hands out a copy: scribbling on it leaves the stage's own set alone.
	st.Active()[0] = nil
	if got := names(st.ActiveSet()); got != "[A_1 A_2]" {
		t.Fatalf("active set after writing to Active()'s result = %s", got)
	}

	if _, err := st.Launch(cmp.MidLevel); err != nil {
		t.Fatal(err)
	}
	if got := names(st.ActiveSet()); got != "[A_1 A_2 A_3]" {
		t.Errorf("after Launch: active set = %s, want [A_1 A_2 A_3]", got)
	}

	// Withdraw of a busy instance: it leaves the set at once, the stage when
	// its in-flight query ends.
	busy := st.Instances()[0]
	enqueueAt(eng, busy, 1, time.Second, 100*time.Millisecond)
	eng.RunUntil(time.Second)
	before := st.ActiveSet()
	if err := st.Withdraw(busy, nil); err != nil {
		t.Fatal(err)
	}
	if got := names(st.ActiveSet()); got != "[A_2 A_3]" {
		t.Errorf("after Withdraw: active set = %s, want [A_2 A_3]", got)
	}
	if got := names(before); got != "[A_1 A_2 A_3]" {
		t.Errorf("a set handed out before the Withdraw changed under its holder: %s", got)
	}
	eng.Run() // remove
	if got := names(st.ActiveSet()); got != "[A_2 A_3]" || len(st.Instances()) != 2 {
		t.Errorf("after remove: active set = %s over %d instances, want [A_2 A_3] over 2", got, len(st.Instances()))
	}
	// New load goes to the survivors only.
	q := submitAt(eng, sys, 2, 2*time.Second, 10*time.Millisecond)
	eng.Run()
	recordOn(t, q, "A_2")
}

func TestFanOutAdmitsOverRefreshedActiveSet(t *testing.T) {
	eng, sys := newSys(t, Spec{Name: "leaf", Kind: FanOut, Profile: flat, Instances: 2, Level: cmp.MidLevel})
	st := sys.Stage("leaf")
	if len(st.ActiveSet()) != 2 {
		t.Fatalf("active set holds %d shards, want 2", len(st.ActiveSet()))
	}
	// Shards can only be added during set-up; reopen it for one more.
	sys.started = false
	if _, err := st.Launch(cmp.MidLevel); err != nil {
		t.Fatal(err)
	}
	sys.started = true
	q := query.New(1, time.Second, sys.WorkFor(func(int, int) time.Duration { return 50 * time.Millisecond }))
	if len(q.Work[0]) != 3 {
		t.Fatalf("WorkFor drew %d branches, want 3", len(q.Work[0]))
	}
	eng.ScheduleAt(time.Second, func() { sys.Submit(q) })
	eng.Run()
	if len(q.Records) != 3 || !q.Completed() {
		t.Fatalf("query fanned out to %d shards (completed=%v), want 3", len(q.Records), q.Completed())
	}
}
