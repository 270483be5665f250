package replay

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"powerchief/internal/core"
	"powerchief/internal/loadgen"
	"powerchief/internal/telemetry"
)

// TraceVersion is the trace container schema. It versions the header and
// frame framing; the snapshots inside carry core.SnapshotVersion on top.
const TraceVersion = 1

// DefaultFrameLimit bounds a Recorder when no limit is given: week-long
// runs must not grow an unbounded decision log in memory.
const DefaultFrameLimit = 4096

// maxLineBytes bounds one JSONL line (a frame with a large fleet snapshot).
const maxLineBytes = 64 << 20

// Header identifies a trace: what ran, under which seed and policy, built
// from which source tree. Replay warns on provenance drift — comparing a
// trace against a policy built from different code is meaningful but must
// be visible.
type Header struct {
	Version    int                `json:"version"`
	Scenario   string             `json:"scenario,omitempty"`
	Seed       int64              `json:"seed"`
	Policy     string             `json:"policy"`
	Provenance loadgen.Provenance `json:"provenance"`
}

// Trace is a fully loaded decision trace: one frame per recorded tick, the
// policy's own decision record.
type Trace struct {
	Header Header
	Frames []core.DecisionRecord
}

// Recorder is a bounded in-memory core.DecisionTap: the control loop feeds
// it one record per adjust interval, WriteFile persists the trace. It keeps
// the last frames, as the audit log keeps the last events: a ring grown by
// append up to the limit, then each record evicts (and counts) the oldest.
type Recorder struct {
	mu      sync.Mutex
	header  Header
	frames  []core.DecisionRecord // a ring once full: frames[next] is the oldest
	next    int
	limit   int
	dropped int
}

// NewRecorder builds a recorder for one run. A non-positive limit means
// DefaultFrameLimit. The header's Version and Provenance are stamped here.
func NewRecorder(header Header, limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultFrameLimit
	}
	header.Version = TraceVersion
	header.Provenance = loadgen.CaptureProvenance()
	return &Recorder{header: header, limit: limit}
}

// RecordDecision implements core.DecisionTap.
func (r *Recorder) RecordDecision(rec core.DecisionRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.frames) < r.limit {
		r.frames = append(r.frames, rec)
		return
	}
	r.frames[r.next] = rec
	r.next = (r.next + 1) % r.limit
	r.dropped++
}

// Len returns the number of retained frames.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

// Dropped counts the oldest records evicted past the frame limit.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Trace snapshots the recorder into a loadable trace.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{Header: r.header, Frames: make([]core.DecisionRecord, 0, len(r.frames))}
	t.Frames = append(append(t.Frames, r.frames[r.next:]...), r.frames[:r.next]...)
	return t
}

// WriteFile persists the recorded trace; see WriteFile.
func (r *Recorder) WriteFile(path string) error { return WriteFile(path, r.Trace()) }

// Write streams the trace as JSONL: the header line, then one frame per
// line. The encoding is deterministic — identical traces yield identical
// bytes.
func Write(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("replay: writing header: %w", err)
	}
	for i := range t.Frames {
		if err := enc.Encode(&t.Frames[i]); err != nil {
			return fmt.Errorf("replay: writing frame %d: %w", i, err)
		}
	}
	return nil
}

// WriteFile writes the trace to path, gzip-compressed when the name ends in
// ".gz".
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := Write(w, t); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("replay: closing gzip stream: %w", err)
		}
	}
	return f.Close()
}

// Read loads a trace from JSONL. It rejects version-skewed headers and
// snapshots outright, and reports truncation (a cut gzip stream, a partial
// final line) as an error rather than returning a silently shortened trace.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("replay: reading header: %w", err)
		}
		return nil, fmt.Errorf("replay: empty trace")
	}
	var t Trace
	if err := json.Unmarshal(sc.Bytes(), &t.Header); err != nil {
		return nil, fmt.Errorf("replay: decoding header: %w", err)
	}
	if t.Header.Version != TraceVersion {
		return nil, fmt.Errorf("replay: trace schema v%d, this build reads v%d", t.Header.Version, TraceVersion)
	}
	for sc.Scan() {
		var f core.DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("replay: decoding frame %d: %w", len(t.Frames), err)
		}
		if f.Snapshot == nil {
			return nil, fmt.Errorf("replay: frame %d has no snapshot", len(t.Frames))
		}
		if err := f.Snapshot.Validate(); err != nil {
			return nil, fmt.Errorf("replay: frame %d: %w", len(t.Frames), err)
		}
		t.Frames = append(t.Frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: after %d frames: %w", len(t.Frames), err)
	}
	return &t, nil
}

// ReadFile loads a trace from path, transparently gunzipping ".gz" files.
// A truncated gzip stream fails loudly (io.ErrUnexpectedEOF), never as a
// shortened trace.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("replay: opening gzip stream %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	t, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return t, nil
}

// Events renders the trace's audit timeline, oldest frame first: each
// frame's DecisionRecord.Events against its own snapshot.
func (t *Trace) Events() []telemetry.Event {
	var out []telemetry.Event
	for i := range t.Frames {
		f := &t.Frames[i]
		s := f.Snapshot
		out = append(out, f.Events(s.Now, s.Power, s.Budget, s.Draw)...)
	}
	return out
}

// Duration returns the engine-time span covered by the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Frames) == 0 {
		return 0
	}
	return t.Frames[len(t.Frames)-1].Snapshot.Now - t.Frames[0].Snapshot.Now
}

var _ core.DecisionTap = (*Recorder)(nil)
