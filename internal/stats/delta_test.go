package stats

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestDeltaAccumulatorFlushTriggers pins the thresholded net-commit
// contract: a batch is due after Batch completed queries, or once the first
// unflushed fold is Interval old — whichever comes first.
func TestDeltaAccumulatorFlushTriggers(t *testing.T) {
	a := NewDeltaAccumulator(3, 50*time.Millisecond)

	if a.Due(0) {
		t.Fatal("empty accumulator must not be due")
	}
	if d := a.FlushIfDue(time.Hour); d != nil {
		t.Fatal("empty accumulator flushed a delta")
	}

	// Count threshold.
	a.FoldCompletion(1 * time.Millisecond)
	a.FoldCompletion(2 * time.Millisecond)
	if a.Due(2 * time.Millisecond) {
		t.Fatal("2 of 3 queries must not be due before the interval")
	}
	a.FoldCompletion(3 * time.Millisecond)
	if !a.Due(3 * time.Millisecond) {
		t.Fatal("3 of 3 queries must be due")
	}
	d := a.FlushIfDue(3 * time.Millisecond)
	if d == nil || d.Queries != 3 || d.Seq != 1 {
		t.Fatalf("flush = %+v, want 3 queries seq 1", d)
	}
	if q, _ := a.Pending(); q != 0 {
		t.Fatalf("pending after flush = %d, want 0", q)
	}

	// Interval threshold: one query, batch far from full.
	a.FoldCompletion(10 * time.Millisecond)
	if a.Due(30 * time.Millisecond) {
		t.Fatal("young single-query batch must not be due")
	}
	if !a.Due(60 * time.Millisecond) {
		t.Fatal("batch older than the interval must be due")
	}
	d = a.FlushIfDue(60 * time.Millisecond)
	if d == nil || d.Queries != 1 || d.Seq != 2 {
		t.Fatalf("interval flush = %+v, want 1 query seq 2", d)
	}

	// Unconditional flush drains whatever is pending.
	a.FoldRecord(70*time.Millisecond, "web-0", "web", time.Millisecond, 2*time.Millisecond)
	if d = a.Flush(70 * time.Millisecond); d == nil || d.Records() != 1 {
		t.Fatalf("unconditional flush = %+v, want 1 record", d)
	}
	if d = a.Flush(70 * time.Millisecond); d != nil {
		t.Fatal("second flush must return nil")
	}
	if got := a.Flushes(); got != 3 {
		t.Fatalf("lifetime flushes = %d, want 3", got)
	}
}

// TestDeltaAccumulatorMonotoneClamp proves racing completion timestamps
// cannot drive the accumulator's clock backwards: a fold older than the
// floor clamps, so FirstNS/LastNS stay ordered.
func TestDeltaAccumulatorMonotoneClamp(t *testing.T) {
	a := NewDeltaAccumulator(100, time.Second)
	a.FoldCompletion(50 * time.Millisecond)
	a.FoldCompletion(10 * time.Millisecond) // backwards: clamps to 50ms
	a.FoldCompletion(60 * time.Millisecond)
	d := a.Flush(60 * time.Millisecond)
	if d.FirstNS != int64(50*time.Millisecond) {
		t.Fatalf("FirstNS = %d, want the clamped floor %d", d.FirstNS, int64(50*time.Millisecond))
	}
	if d.LastNS != int64(60*time.Millisecond) {
		t.Fatalf("LastNS = %d, want %d", d.LastNS, int64(60*time.Millisecond))
	}
	// The interval trigger keys off the first fold in the batch, which the
	// clamp keeps ≥ the previous batch's floor.
	a.FoldCompletion(10 * time.Millisecond) // clamps to 60ms
	if a.Due(60*time.Millisecond + 500*time.Millisecond) {
		t.Fatal("clamped fold aged from the floor, must not be due yet")
	}
	if !a.Due(60*time.Millisecond + time.Second) {
		t.Fatal("batch must be due one interval after its clamped first fold")
	}
}

// TestDeltaFoldMatchesPerRecordBucketWindow is the exactness argument as a
// test: folding N records through a DeltaAccumulator → Delta → AddDigest
// into a BucketWindow yields the same count, sum, mean and interpolated
// quantiles as N direct Adds at the flush time.
func TestDeltaFoldMatchesPerRecordBucketWindow(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(42))
	span := 10 * time.Second

	direct := NewBucketWindow(span, 32)
	batched := NewBucketWindow(span, 32)
	a := NewDeltaAccumulator(n, time.Hour)

	flushAt := 2 * time.Second
	for i := 0; i < n; i++ {
		v := time.Duration(rng.Int63n(int64(80 * time.Millisecond)))
		// All direct Adds at the flush time: the digest fold lands every
		// summarized sample in the bucket containing the flush, so the
		// fair comparison feeds both windows at the same timestamp.
		direct.Add(flushAt, v)
		a.FoldRecord(time.Duration(i)*100*time.Microsecond, "web-0", "web", v, v/2)
	}
	d := a.Flush(flushAt)
	if d.Records() != n {
		t.Fatalf("delta records = %d, want %d", d.Records(), n)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := batched.AddDigest(flushAt, d.Insts[0].Queuing); err != nil {
		t.Fatalf("AddDigest: %v", err)
	}

	if direct.count != batched.count || direct.sum != batched.sum {
		t.Fatalf("count/sum: direct %d/%v, batched %d/%v", direct.count, direct.sum, batched.count, batched.sum)
	}
	dm, _ := direct.Mean()
	bm, _ := batched.Mean()
	if dm != bm {
		t.Fatalf("Mean: direct %v, batched %v", dm, bm)
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		dv, _ := direct.Percentile(p)
		bv, _ := batched.Percentile(p)
		if dv != bv {
			t.Fatalf("Percentile(%v): direct %v, batched %v", p, dv, bv)
		}
	}
}

// TestDeltaMergeExact proves Merge is exact: two deltas merged equal one
// accumulator fed both streams.
func TestDeltaMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	one := NewDeltaAccumulator(1<<20, time.Hour)
	a1 := NewDeltaAccumulator(1<<20, time.Hour)
	a2 := NewDeltaAccumulator(1<<20, time.Hour)

	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * time.Millisecond
		q := time.Duration(rng.Int63n(int64(time.Millisecond)))
		s := time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		inst := "web-0"
		if i%3 == 0 {
			inst = "web-1"
		}
		one.FoldRecord(at, inst, "web", q, s)
		one.FoldQuery(at, q+s)
		if i%2 == 0 {
			a1.FoldRecord(at, inst, "web", q, s)
			a1.FoldQuery(at, q+s)
		} else {
			a2.FoldRecord(at, inst, "web", q, s)
			a2.FoldQuery(at, q+s)
		}
	}
	want := one.Flush(time.Second)
	d1 := a1.Flush(time.Second)
	d2 := a2.Flush(time.Second)
	if err := d1.Merge(d2); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if d1.Queries != want.Queries {
		t.Fatalf("merged queries = %d, want %d", d1.Queries, want.Queries)
	}
	if d1.Records() != want.Records() {
		t.Fatalf("merged records = %d, want %d", d1.Records(), want.Records())
	}
	hm, err := MergeDigests(d1.E2E)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := MergeDigests(want.E2E)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Count() != hw.Count() || hm.Mean() != hw.Mean() {
		t.Fatalf("merged e2e n=%d mean=%v, want n=%d mean=%v", hm.Count(), hm.Mean(), hw.Count(), hw.Mean())
	}
	for _, p := range []float64{0.5, 0.99} {
		if hm.Quantile(p) != hw.Quantile(p) {
			t.Fatalf("merged e2e q%v = %v, want %v", p, hm.Quantile(p), hw.Quantile(p))
		}
	}
	// Per-instance digests must also match bin-for-bin.
	byInst := map[string]*InstDelta{}
	for i := range want.Insts {
		byInst[want.Insts[i].Instance] = &want.Insts[i]
	}
	for i := range d1.Insts {
		got := &d1.Insts[i]
		w := byInst[got.Instance]
		if w == nil {
			t.Fatalf("merged delta has unexpected instance %q", got.Instance)
		}
		gj, _ := json.Marshal(got.Queuing)
		wj, _ := json.Marshal(w.Queuing)
		if string(gj) != string(wj) {
			t.Fatalf("instance %q queuing digest mismatch:\n got %s\nwant %s", got.Instance, gj, wj)
		}
	}
}

// TestDeltaValidateRejectsForeignFrames pins the defensive checks: newer
// versions, foreign growth factors and out-of-layout bins are refused
// before any fold.
func TestDeltaValidateRejectsForeignFrames(t *testing.T) {
	if err := (&Delta{V: DeltaVersion + 1}).Validate(); err == nil {
		t.Fatal("newer version must be rejected")
	}
	h := NewHistogram(2.0)
	h.Observe(time.Millisecond)
	d := &Delta{V: DeltaVersion, E2E: h.Digest()}
	if err := d.Validate(); err == nil {
		t.Fatal("foreign growth factor must be rejected")
	}
	d = &Delta{V: DeltaVersion, E2E: &HistogramDigest{
		Growth: BinGrowth, Count: 1, Bins: []DigestBin{{Index: 1 << 20, Count: 1}},
	}}
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-layout bin index must be rejected")
	}
	w := NewBucketWindow(time.Second, 8)
	if err := w.AddDigest(0, h.Digest()); err == nil {
		t.Fatal("AddDigest must refuse a foreign growth factor")
	}
}

// TestDeltaValidateRejectsUnpairedDigests: every record has a queuing and a
// serving half, so an instance's two digests are both present or both
// absent, with one count. A serving-only digest would skew the lifetime
// serving mean (its count comes from the queuing side); a count mismatch
// cannot fold into a paired window.
func TestDeltaValidateRejectsUnpairedDigests(t *testing.T) {
	digest := func(samples ...time.Duration) *HistogramDigest {
		h := NewBinHistogram()
		for _, v := range samples {
			h.Observe(v)
		}
		return h.Digest()
	}
	ms := time.Millisecond
	for name, inst := range map[string]InstDelta{
		"serving only":   {Instance: "QA_1", Serving: digest(ms)},
		"queuing only":   {Instance: "QA_1", Queuing: digest(ms)},
		"count mismatch": {Instance: "QA_1", Queuing: digest(ms), Serving: digest(ms, 2*ms)},
	} {
		d := &Delta{V: DeltaVersion, Queries: 1, Insts: []InstDelta{inst}}
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "QA_1") {
			t.Errorf("%s: Validate = %v, want an error naming the instance", name, err)
		}
	}
	paired := &Delta{V: DeltaVersion, Insts: []InstDelta{
		{Instance: "QA_1", Queuing: digest(ms, ms), Serving: digest(3*ms, 4*ms)},
		{Instance: "QA_2"},
	}}
	if err := paired.Validate(); err != nil {
		t.Errorf("paired digests: %v", err)
	}
}

// TestFoldDigestRefusesExactWindow: a digest is bins on the shared layout,
// which the exact sample-keeping Window does not keep — the fold is refused
// with the requirement named and the window untouched, never approximated.
func TestFoldDigestRefusesExactWindow(t *testing.T) {
	h := NewBinHistogram()
	h.Observe(time.Millisecond)
	w := NewWindow(time.Minute)
	err := FoldDigest(w, time.Second, h.Digest())
	if err == nil || !strings.Contains(err.Error(), "BucketWindow") {
		t.Fatalf("FoldDigest into an exact window: err = %v, want one naming BucketWindow", err)
	}
	if w.Len() != 0 {
		t.Fatalf("refused fold left %d samples behind", w.Len())
	}
}

// TestDeltaJSONRoundTrip pins the wire shape: a delta survives JSON
// marshal/unmarshal bit-exactly, and zero-valued optional fields stay off
// the wire (the RecordWire back-compat discipline).
func TestDeltaJSONRoundTrip(t *testing.T) {
	a := NewDeltaAccumulator(10, time.Second)
	a.FoldRecord(time.Millisecond, "web-0", "web", time.Millisecond, 2*time.Millisecond)
	a.FoldCompletion(time.Millisecond)
	d := a.Flush(time.Millisecond)

	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Delta
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped delta invalid: %v", err)
	}
	if back.Queries != d.Queries || back.Seq != d.Seq || back.Records() != d.Records() {
		t.Fatalf("round trip changed the delta: %+v vs %+v", back, d)
	}
	// No E2E digest was folded, so the field must be absent on the wire.
	var asMap map[string]any
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	if _, present := asMap["e2e"]; present {
		t.Fatalf("empty e2e digest leaked onto the wire: %s", raw)
	}
}

// TestDeltaReceiverCountsLostFlushesNotDiscontinuities: concurrent folds
// deliver one source's frames in any order, so only a sequence number that
// never arrives is a loss; sources are tracked apart, a frame that could not
// be folded is a loss, and a re-armed source (a restarted peer numbering
// from 1) starts clean without forgetting what was lost before.
func TestDeltaReceiverCountsLostFlushesNotDiscontinuities(t *testing.T) {
	var r DeltaReceiver
	note := func(source string, folded bool, seqs ...uint64) {
		for _, seq := range seqs {
			r.Note(source, &Delta{Seq: seq, Queries: 2}, folded)
		}
	}
	counts := func(wantDeltas, wantQueries, wantLost uint64) {
		t.Helper()
		if d, q, lost := r.Counts(); d != wantDeltas || q != wantQueries || lost != wantLost {
			t.Fatalf("Counts = (%d, %d, %d), want (%d, %d, %d)", d, q, lost, wantDeltas, wantQueries, wantLost)
		}
	}
	note("ASR", true, 1, 3)
	counts(2, 4, 1) // 2 is in flight: reads as lost until it lands
	note("ASR", true, 2, 4)
	counts(4, 8, 0)
	note("QA", true, 1, 2, 4)
	counts(7, 14, 1)
	note("QA", false, 5) // received, not foldable: its statistics are gone
	counts(7, 14, 2)

	r.Rearm("QA")
	note("QA", true, 2, 1, 3) // the new process numbers from 1 again
	counts(10, 20, 2)
	r.Rearm("never-seen")
	counts(10, 20, 2)
}
