package query

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
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

// criticalPath sums the processing delay of the slowest record per stage: a
// fan-out stage costs the query its slowest branch, which the stage model
// accounts for in Done. A plausibility cross-check of the pipeline timing.
func criticalPath(q *Query) time.Duration {
	byStage := make(map[string]time.Duration)
	for _, r := range q.Records {
		if d := r.Processing(); d > byStage[r.Stage] {
			byStage[r.Stage] = d
		}
	}
	var total time.Duration
	for _, d := range byStage {
		total += d
	}
	return total
}

func TestCriticalPathTakesSlowestBranchPerStage(t *testing.T) {
	q := New(1, 0, nil)
	// Fan-out stage "leaf": two branches, 40ms and 90ms processing.
	q.Append(rec("leaf", "leaf_1", 0, 0, 40*time.Millisecond))
	q.Append(rec("leaf", "leaf_2", 0, 10*time.Millisecond, 90*time.Millisecond))
	// Pipeline stage "agg": 5ms.
	q.Append(rec("agg", "agg_1", 90*time.Millisecond, 90*time.Millisecond, 95*time.Millisecond))
	want := 90*time.Millisecond + 5*time.Millisecond
	if got := criticalPath(q); got != want {
		t.Errorf("criticalPath = %v, want %v", got, want)
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

// open returns the addressable value v with the read-only mark of an
// unexported field taken off.
func open(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// fillNonZero sets v — reached through unsafe so that unexported fields count
// too — to a non-zero value of its kind. A kind it does not know fails the
// test: whoever adds such a field to Query extends the walk.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	v = open(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("fillNonZero: no non-zero value for kind %v", v.Kind())
	}
}

// TestPoolGetResetsEveryField walks Query by reflection, so a field added
// later cannot be forgotten: with every field non-zero, a query that went
// through Release and Get equals a fresh New(id, arrival, nil) in every
// field but the three a recycled query keeps on purpose.
func TestPoolGetResetsEveryField(t *testing.T) {
	var p Pool
	q := p.Get(1, time.Second)
	v := reflect.ValueOf(q).Elem()
	for i := 0; i < v.NumField(); i++ {
		// pool is set already; free is Release's to set.
		if name := v.Type().Field(i).Name; name != "pool" && name != "free" {
			fillNonZero(t, v.Field(i))
		}
	}
	q.Release()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is still zero: the walk proves nothing about it", v.Type().Field(i).Name)
		}
	}
	work, records := &q.Work[0][0], &q.Records[0]

	got := p.Get(9, 9*time.Second)
	if got != q {
		t.Fatal("Get allocated a query while a released one was waiting")
	}
	fresh := reflect.ValueOf(New(9, 9*time.Second, nil)).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Work":
			if len(got.Work) != 1 || &got.Work[0][0] != work {
				t.Error("Work matrix not kept for refilling")
			}
		case "Records":
			if len(got.Records) != 0 || cap(got.Records) != 1 || &got.Records[:1][0] != records {
				t.Errorf("Records len %d cap %d, want the old array emptied", len(got.Records), cap(got.Records))
			}
		case "pool":
			if got.pool != &p {
				t.Error("recycled query lost its pool")
			}
		default:
			have, want := open(v.Field(i)).Interface(), open(fresh.Field(i)).Interface()
			if !reflect.DeepEqual(have, want) {
				t.Errorf("field %s = %v after Get, a fresh query has %v", name, have, want)
			}
		}
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	var p Pool
	q := p.Get(1, 0)
	q.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of a pooled query did not panic")
		}
	}()
	q.Release()
}

func TestNewQueryIsNeverPooled(t *testing.T) {
	var p Pool
	p.Get(1, 0).Release() // a pool in use, not an empty one
	q := New(2, 0, [][]time.Duration{{time.Millisecond}})
	q.Release()
	q.Release() // a no-op every time, not a double release
	if len(q.Work) != 1 || cap(q.Records) != 1 {
		t.Error("Release changed a query made by New")
	}
	for i := 0; i < 3; i++ {
		if p.Get(ID(3+i), 0) == q {
			t.Fatal("pool handed out a query made by New")
		}
	}
}

func TestCloneSharesNoStorage(t *testing.T) {
	var p Pool
	q := p.Get(4, time.Second)
	q.SetWork([][]time.Duration{{1}, {2, 3}})
	q.Append(rec("A", "A_1", 1, 2, 3))
	q.Append(rec("B", "B_1", 3, 4, 5))
	q.Done = 2 * time.Second

	c := q.Clone()
	if c.ID != q.ID || c.Arrival != q.Arrival || c.Done != q.Done ||
		!reflect.DeepEqual(c.Work, q.Work) || !reflect.DeepEqual(c.Records, q.Records) {
		t.Fatalf("clone %+v differs from its source %+v", c, q)
	}
	if &c.Work[0] == &q.Work[0] || &c.Work[1][0] == &q.Work[1][0] || &c.Records[0] == &q.Records[0] {
		t.Fatal("clone shares storage with its source")
	}
	if cap(c.Work[0]) != 1 {
		t.Error("clone's work rows are not capacity-limited: appending to one would overwrite the next")
	}

	// The source goes round again; the clone is untouched and stays out of
	// the pool.
	q.Release()
	again := p.Get(5, 3*time.Second)
	again.Work[1][1] = 99
	again.Append(rec("Z", "Z_1", 7, 8, 9))
	if c.ID != 4 || c.Work[1][1] != 3 || c.Records[0].Stage != "A" || len(c.Records) != 2 {
		t.Errorf("recycling the source changed the clone: %+v", c)
	}
	c.Release()
	if p.Get(6, 0) == c {
		t.Error("a clone was released into its source's pool")
	}
}

// TestRecycledQueryAllocatesNothing: one trip through the pool — Get,
// SetWork with the refilled matrix, the records, Release — costs the heap
// nothing; the copy Clone makes costs the query's own four.
func TestRecycledQueryAllocatesNothing(t *testing.T) {
	var p Pool
	work := [][]time.Duration{{1}, {2}, {3}}
	trip := func() *Query {
		q := p.Get(1, time.Second)
		q.SetWork(work)
		for i := 0; i < 3; i++ {
			q.Append(rec("S", "S_1", 0, 1, 2))
		}
		return q
	}
	trip().Release()
	if n := testing.AllocsPerRun(100, func() { trip().Release() }); n != 0 {
		t.Errorf("a recycled query cost %.0f allocations, want 0", n)
	}
	q := trip()
	if n := testing.AllocsPerRun(100, func() { q.Clone() }); n != 4 {
		t.Errorf("Clone cost %.0f allocations, want 4", n)
	}
}
