package stats

import (
	"math/rand"
	"testing"
	"time"

	"powerchief/internal/wire/wiretest"
)

// randDigest draws a digest the way a histogram would produce one, plus the
// odd values only a hostile or future peer would send (negative sums and bin
// indexes): the codec carries them faithfully and leaves judging to Validate.
func randDigest(rng *rand.Rand) *HistogramDigest {
	if rng.Intn(4) == 0 {
		return nil
	}
	h := &HistogramDigest{
		Growth: []float64{binGrowth, 1.1, 2}[rng.Intn(3)], Count: rng.Uint64() >> uint(rng.Intn(64)),
		SumNS: rng.Int63() - rng.Int63(), MinNS: rng.Int63n(1e6), MaxNS: rng.Int63(), Overflow: uint64(rng.Intn(3)),
	}
	for i := rng.Intn(5); i > 0; i-- {
		h.Bins = append(h.Bins, DigestBin{Index: rng.Intn(120) - 5, Count: uint64(rng.Intn(1 << 20))})
	}
	return h
}

func randDelta(rng *rand.Rand) Delta {
	d := Delta{
		V: rng.Intn(3), Seq: rng.Uint64() >> uint(rng.Intn(64)), Queries: uint64(rng.Intn(1000)),
		FirstNS: rng.Int63n(1e12), LastNS: rng.Int63n(1e12), E2E: randDigest(rng),
	}
	for i := rng.Intn(4); i > 0; i-- {
		d.Insts = append(d.Insts, InstDelta{
			Instance: []string{"", "QA_1", "web-17"}[rng.Intn(3)], Stage: []string{"", "QA"}[rng.Intn(2)],
			Queuing: randDigest(rng), Serving: randDigest(rng),
		})
	}
	return d
}

// flushedDelta is a delta as a stage service ships it.
func flushedDelta() Delta {
	acc := NewDeltaAccumulator(8, time.Second)
	for i := 1; i <= 5; i++ {
		at := time.Duration(i) * time.Millisecond
		acc.FoldRecord(at, "QA_1", "QA", time.Duration(i)*time.Microsecond, at)
		acc.FoldQuery(at, 2*at)
	}
	return *acc.Flush(time.Second)
}

// TestDeltaWireRoundTrip: the binary body carries every field of a delta and
// its digests exactly, truncated bodies are errors, and what a real
// accumulator flushes still validates and counts the same after the trip.
func TestDeltaWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	wiretest.RoundTrip(t, Delta{})
	for i := 0; i < 50; i++ {
		wiretest.RoundTrip(t, randDelta(rng))
	}
	d := flushedDelta()
	var back Delta
	if err := back.DecodeWire(wiretest.RoundTrip(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil || back.Records() != 5 || back.E2E.Count != 5 {
		t.Fatalf("flushed delta after the trip: %+v (%v)", back, err)
	}
}

// FuzzDelta: arbitrary bytes neither panic the decoder nor Validate, and
// whatever Validate accepts has its instance digests paired.
func FuzzDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	serving := flushedDelta()
	serving.Insts[0].Queuing = nil // a serving-only digest
	for _, d := range []Delta{{}, flushedDelta(), serving, randDelta(rng), randDelta(rng)} {
		f.Add(d.AppendWire(nil))
	}
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 4 G instances announced, none sent
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.Fuzz[Delta](t, data)
		var d Delta
		if d.DecodeWire(data) != nil || d.Validate() != nil {
			return
		}
		for _, id := range d.Insts {
			if (id.Queuing == nil) != (id.Serving == nil) || (id.Queuing != nil && id.Queuing.Count != id.Serving.Count) {
				t.Fatalf("Validate accepted unpaired digests for %q: %+v / %+v", id.Instance, id.Queuing, id.Serving)
			}
		}
	})
}
