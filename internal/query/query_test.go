package query

import (
	"testing"
	"time"
)

func rec(stage, inst string, qe, ss, se time.Duration) Record {
	return Record{Stage: stage, Instance: inst, QueueEnter: qe, ServeStart: ss, ServeEnd: se}
}

func TestRecordDerivedDurations(t *testing.T) {
	r := rec("QA", "QA_1", 10*time.Millisecond, 30*time.Millisecond, 100*time.Millisecond)
	if r.Queuing() != 20*time.Millisecond {
		t.Errorf("Queuing = %v", r.Queuing())
	}
	if r.Serving() != 70*time.Millisecond {
		t.Errorf("Serving = %v", r.Serving())
	}
	if r.Processing() != 90*time.Millisecond {
		t.Errorf("Processing = %v", r.Processing())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}

func TestRecordValidateOrdering(t *testing.T) {
	bad1 := rec("A", "A_1", 10, 5, 20)
	if bad1.Validate() == nil {
		t.Error("serve-before-queue accepted")
	}
	bad2 := rec("A", "A_1", 0, 10, 5)
	if bad2.Validate() == nil {
		t.Error("end-before-start accepted")
	}
}

func TestQueryLifecycle(t *testing.T) {
	q := New(7, time.Second, [][]time.Duration{{100 * time.Millisecond}})
	if q.Completed() {
		t.Fatal("fresh query reports completed")
	}
	q.Done = 3 * time.Second
	if !q.Completed() {
		t.Fatal("query with Done set not completed")
	}
	if q.Latency() != 2*time.Second {
		t.Errorf("Latency = %v", q.Latency())
	}
}

func TestWorkAtWrapsBranches(t *testing.T) {
	q := New(1, 0, [][]time.Duration{
		{time.Millisecond},
		{10 * time.Millisecond, 20 * time.Millisecond},
	})
	if q.WorkAt(0, 5) != time.Millisecond {
		t.Error("single-branch stage should serve any instance index")
	}
	if q.WorkAt(1, 0) != 10*time.Millisecond || q.WorkAt(1, 1) != 20*time.Millisecond {
		t.Error("branch indexing broken")
	}
	if q.WorkAt(1, 2) != 10*time.Millisecond {
		t.Error("branch index should wrap")
	}
}

func TestWorkAtPanicsOutOfRange(t *testing.T) {
	q := New(1, 0, [][]time.Duration{{time.Millisecond}})
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"stage out of range", func() { q.WorkAt(3, 0) }},
		{"negative stage", func() { q.WorkAt(-1, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestWorkAtEmptyBranchPanics(t *testing.T) {
	q := New(1, 0, [][]time.Duration{{}})
	defer func() {
		if recover() == nil {
			t.Fatal("empty branch list did not panic")
		}
	}()
	q.WorkAt(0, 0)
}

func TestPendingBranches(t *testing.T) {
	q := New(1, 0, nil)
	q.SetPending(3)
	if q.BranchDone() {
		t.Error("first branch completion reported stage done")
	}
	if q.BranchDone() {
		t.Error("second branch completion reported stage done")
	}
	if !q.BranchDone() {
		t.Error("last branch completion did not report stage done")
	}
}

func TestBranchDoneWithoutPendingPanics(t *testing.T) {
	q := New(1, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("BranchDone with no pending branches did not panic")
		}
	}()
	q.BranchDone()
}

func TestCriticalPathTakesSlowestBranchPerStage(t *testing.T) {
	q := New(1, 0, nil)
	// Fan-out stage "leaf": two branches, 40ms and 90ms processing.
	q.Append(rec("leaf", "leaf_1", 0, 0, 40*time.Millisecond))
	q.Append(rec("leaf", "leaf_2", 0, 10*time.Millisecond, 90*time.Millisecond))
	// Pipeline stage "agg": 5ms.
	q.Append(rec("agg", "agg_1", 90*time.Millisecond, 90*time.Millisecond, 95*time.Millisecond))
	want := 90*time.Millisecond + 5*time.Millisecond
	if got := q.CriticalPath(); got != want {
		t.Errorf("CriticalPath = %v, want %v", got, want)
	}
}

func TestAppendAccumulatesRecords(t *testing.T) {
	q := New(1, 0, nil)
	q.Append(rec("A", "A_1", 0, 1, 2))
	q.Append(rec("B", "B_1", 2, 3, 4))
	if len(q.Records) != 2 {
		t.Fatalf("Records = %d, want 2", len(q.Records))
	}
	if q.Records[0].Stage != "A" || q.Records[1].Stage != "B" {
		t.Error("record order not preserved")
	}
}

func TestNewSizesRecordsFromWork(t *testing.T) {
	// One record per work entry: a pipeline stage leaves one, a fan-out
	// stage one per branch.
	work := [][]time.Duration{{1}, {2, 3, 4}, {5}}
	q := New(1, 0, work)
	if len(q.Records) != 0 || cap(q.Records) != 5 {
		t.Fatalf("Records len %d cap %d, want 0 and 5", len(q.Records), cap(q.Records))
	}
	first := &q.Records[:1][0]
	for i := 0; i < 5; i++ {
		q.Append(rec("S", "S_1", 0, 1, 2))
	}
	if &q.Records[0] != first {
		t.Error("Records was reallocated while the query collected its own records")
	}
	if got := New(2, 0, nil); cap(got.Records) != 0 {
		t.Errorf("query without work reserved %d records", cap(got.Records))
	}
}
