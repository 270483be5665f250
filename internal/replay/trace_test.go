package replay

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

// testTrace records topology-only frames from a real DES deployment, so the
// snapshots carry genuine physics tables and instance state.
func testTrace(t testing.TB, frames int) *Trace {
	t.Helper()
	eng := sim.NewEngine()
	chip := cmp.NewChip(8, cmp.DefaultModel(), 30)
	specs, err := app.Sirius().Specs([]int{1, 1, 1}, cmp.MidLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := stage.NewSystem(eng, chip, specs)
	if err != nil {
		t.Fatal(err)
	}
	view := core.NewDESView(sys)
	rec := NewRecorder(Header{Scenario: "trace-test", Seed: 42, Policy: "baseline"}, 0)
	for i := 0; i < frames; i++ {
		eng.RunUntil(time.Duration(i+1) * time.Second)
		rec.RecordDecision(core.DecisionRecord{
			Snapshot: core.CaptureSnapshot(view, nil),
			Outcome:  core.BoostOutcome{Kind: core.BoostNone},
		})
	}
	return rec.Trace()
}

func TestTraceRoundTrip(t *testing.T) {
	tr := testTrace(t, 3)
	var a, b bytes.Buffer
	if err := Write(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace encoding is not deterministic")
	}
	got, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header drifted: %+v vs %+v", got.Header, tr.Header)
	}
	want, _ := json.Marshal(tr.Frames)
	have, _ := json.Marshal(got.Frames)
	if !bytes.Equal(want, have) {
		t.Fatal("frames drifted across the round trip")
	}

	// The gzip file path round-trips identically.
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	have2, _ := json.Marshal(got2.Frames)
	if got2.Header != tr.Header || !bytes.Equal(want, have2) {
		t.Fatal("gzip round trip drifted")
	}
	if got2.Duration() != 2*time.Second {
		t.Fatalf("Duration = %v, want 2s across 3 one-second frames", got2.Duration())
	}
}

// TestTraceTruncationFailsLoudly: a cut gzip stream and a partial final
// JSONL line both surface as read errors, never as a silently shortened
// trace.
func TestTraceTruncationFailsLoudly(t *testing.T) {
	tr := testTrace(t, 4)
	dir := t.TempDir()

	gz := filepath.Join(dir, "t.jsonl.gz")
	if err := WriteFile(gz, tr); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.5, 0.9} {
		cut := filepath.Join(dir, "cut.jsonl.gz")
		if err := os.WriteFile(cut, payload[:int(float64(len(payload))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(cut); err == nil {
			t.Fatalf("gzip trace truncated to %.0f%% read without error", frac*100)
		}
	}

	plain := filepath.Join(dir, "t.jsonl")
	if err := WriteFile(plain, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.jsonl")
	if err := os.WriteFile(cut, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(cut); err == nil {
		t.Fatal("trace with a partial final line read without error")
	}
}

// TestTraceVersionSkewRejected: both container-level and snapshot-level
// schema skew are refused outright — silent reinterpretation of recorded
// decision inputs would defeat the determinism gate.
func TestTraceVersionSkewRejected(t *testing.T) {
	hdr := Header{Version: TraceVersion + 1, Policy: "baseline"}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("version-skewed header accepted: %v", err)
	}

	tr := testTrace(t, 1)
	tr.Frames[0].Snapshot.Version = core.SnapshotVersion + 1
	var skew bytes.Buffer
	if err := Write(&skew, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&skew); err == nil {
		t.Fatal("snapshot version skew accepted")
	}

	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestRecorderBoundsFrames: past the limit the trace keeps the last frames,
// oldest first, and the evictions are counted, never sampled.
func TestRecorderBoundsFrames(t *testing.T) {
	src := testTrace(t, 1)
	snap := src.Frames[0].Snapshot
	rec := NewRecorder(Header{Policy: "baseline"}, 2)
	for i := 0; i < 5; i++ {
		rec.RecordDecision(core.DecisionRecord{Tick: i, Snapshot: snap})
	}
	if rec.Len() != 2 || rec.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 3", rec.Len(), rec.Dropped())
	}
	tr := rec.Trace()
	if len(tr.Frames) != 2 || tr.Frames[0].Tick != 3 || tr.Frames[1].Tick != 4 {
		t.Fatalf("bounded trace is not the last two frames: %+v", tr.Frames)
	}
	if tr.Header.Version != TraceVersion {
		t.Fatalf("recorder did not stamp the trace version: %d", tr.Header.Version)
	}
}

// FuzzRead: Read never panics, and every frame it accepts survives a
// SnapshotView and a PowerChief plan against it — a trace that validates is
// one the arena can replay.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, testTrace(f, 2)); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(regexp.MustCompile(`"power_watts":\[[^]]*\]`).ReplaceAllString(valid, `"power_watts":null`))
	f.Add(regexp.MustCompile(`"exec_ratio":\[[^]]*\]`).ReplaceAllString(valid, `"exec_ratio":null`))
	f.Add(valid[:len(valid)-len(valid)/4]) // a cut final line

	// A frame carrying every audit field a tick records.
	rich := testTrace(f, 1)
	fr := &rich.Frames[0]
	fr.Tick = 7
	fr.Identified = &core.Identification{Stage: "QA", Instance: "QA_1", QueueLen: 3, Serving: time.Second, Metric: 4 * time.Second, Spread: 3 * time.Second}
	fr.Decided = true
	fr.Withdraw = []core.ActionRecord{{Kind: "withdraw", Stage: "QA", Victim: "QA_2", Target: "QA_1"}}
	fr.Failure = &core.Failure{Step: 0, Err: "core: applying set-level QA_1 1→2: rpc: connection lost"}
	buf.Reset()
	if err := Write(&buf, rich); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		for i := range tr.Frames {
			sv := core.NewSnapshotView(tr.Frames[i].Snapshot)
			core.NewPowerChief(core.DefaultConfig()).Plan(sv, sv)
		}
	})
}
