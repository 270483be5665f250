package loadgen

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"text/tabwriter"
	"time"

	"powerchief/internal/stats"
)

// Provenance records where numbers came from, so the gate can flag a
// drifting build, toolchain or host: the build's git revision, the Go
// toolchain, the host that ran it, and the number of cooperating benchmark
// agents that produced the numbers.
type Provenance struct {
	GitRevision string `json:"git_revision,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
	Hostname    string `json:"hostname,omitempty"`
	Agents      int    `json:"agents,omitempty"`

	// IngestBatch and IngestIntervalMS record the dist target's stat-delta
	// batch sizes (zero: the stats defaults). Runs with different batching
	// have different statistic-staleness bounds; as provenance, the
	// difference shows as a warning.
	IngestBatch      int     `json:"ingest_batch,omitempty"`
	IngestIntervalMS float64 `json:"ingest_interval_ms,omitempty"`
}

var (
	provOnce   sync.Once
	provCached Provenance
)

// CaptureProvenance reads the build and host identity once (git revision
// from the binary's embedded VCS info, "unknown" outside a stamped build).
func CaptureProvenance() Provenance {
	provOnce.Do(func() {
		provCached = Provenance{GitRevision: "unknown", GoVersion: runtime.Version(), Agents: 1}
		if host, err := os.Hostname(); err == nil {
			provCached.Hostname = host
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					provCached.GitRevision = s.Value
				}
			}
		}
	})
	return provCached
}

// Summary is the JSON-serializable digest of one run — what benchnet agents
// ship and the detail of the artifact cmd/powerbench writes with -json. It
// carries the full serialized latency histogram (not just quantiles), so N
// agent summaries merge exactly into one cluster-wide distribution; the
// quantile block is derived from the histogram and kept for human
// readability.
type Summary struct {
	Target    string  `json:"target"`
	Schedule  string  `json:"schedule"`
	RateQPS   float64 `json:"rate_qps"`
	Duration  string  `json:"duration"`
	Warmup    string  `json:"warmup,omitempty"`
	Workers   int     `json:"workers"`
	Seed      int64   `json:"seed"`
	SelfPaced bool    `json:"self_paced,omitempty"`

	// Agents is the number of cooperating load generators behind the
	// numbers: 1 for a single-process run, N for a coordinator-merged one.
	Agents int `json:"agents,omitempty"`
	// StoppedEarly marks a run cancelled by throughput auto-termination.
	StoppedEarly bool `json:"stopped_early,omitempty"`

	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Trimmed   uint64 `json:"trimmed,omitempty"`
	Errors    uint64 `json:"errors"`

	WallMS      float64 `json:"wall_ms"`
	AchievedQPS float64 `json:"achieved_qps"`

	// Latency percentiles are the coordinated-omission-safe
	// intended-start-to-completion distribution, in milliseconds.
	LatencyMS Quantiles `json:"latency_ms"`
	// ServiceMS is the send-time (pickup-to-completion) diagnostic
	// distribution; absent for self-paced targets.
	ServiceMS *Quantiles `json:"service_ms,omitempty"`

	// LatencyHist is the serialized log-spaced latency histogram the
	// quantiles derive from; agent digests with one growth factor merge
	// exactly (stats.MergeDigests).
	LatencyHist *stats.HistogramDigest `json:"latency_hist,omitempty"`
	// ServiceHist is the serialized send-time distribution, when recorded.
	ServiceHist *stats.HistogramDigest `json:"service_hist,omitempty"`

	// Provenance identifies the build, host and agent count behind the run.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Quantiles summarizes one latency distribution in milliseconds.
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summarize digests a result.
func Summarize(r *Result) Summary {
	prov := CaptureProvenance()
	s := Summary{
		Target:       r.Target,
		Schedule:     r.Schedule,
		RateQPS:      r.Rate,
		Duration:     r.Duration.String(),
		Workers:      r.Workers,
		Seed:         r.Seed,
		SelfPaced:    r.SelfPaced,
		Agents:       1,
		StoppedEarly: r.Stopped,
		Issued:       r.Issued,
		Completed:    r.Completed,
		Trimmed:      r.Trimmed,
		Errors:       r.Errors,
		WallMS:       ms(r.Wall),
		AchievedQPS:  r.AchievedQPS(),
		LatencyMS:    quantilesOf(r.Latency),
		LatencyHist:  r.Latency.Digest(),
		Provenance:   &prov,
	}
	if r.Warmup > 0 {
		s.Warmup = r.Warmup.String()
	}
	if r.Service.Count() > 0 {
		q := quantilesOf(r.Service)
		s.ServiceMS = &q
		s.ServiceHist = r.Service.Digest()
	}
	return s
}

func quantilesOf(h interface {
	Mean() time.Duration
	Quantile(float64) time.Duration
	Max() time.Duration
}) Quantiles {
	return Quantiles{
		Mean: ms(h.Mean()),
		P50:  ms(h.Quantile(0.50)),
		P90:  ms(h.Quantile(0.90)),
		P99:  ms(h.Quantile(0.99)),
		P999: ms(h.Quantile(0.999)),
		Max:  ms(h.Max()),
	}
}

// QuantilesFromDigest derives the human-readable quantile block from a
// serialized histogram — the path a merged (multi-agent) summary takes.
func QuantilesFromDigest(d *stats.HistogramDigest) (Quantiles, error) {
	h, err := stats.FromDigest(d)
	if err != nil {
		return Quantiles{}, fmt.Errorf("loadgen: deriving quantiles: %w", err)
	}
	return quantilesOf(h), nil
}

// WriteTable renders one or more summaries as a human-readable table; rows
// share the header, so a sweep prints as one block.
func WriteTable(w io.Writer, sums ...Summary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "target\tsched\trate\tachieved\tops\terrs\tmean\tp50\tp99\tp99.9\tmax")
	for _, s := range sums {
		fmt.Fprintf(tw, "%s\t%s\t%.1f/s\t%.1f/s\t%d\t%d\t%.1fms\t%.1fms\t%.1fms\t%.1fms\t%.1fms\n",
			s.Target, s.Schedule, s.RateQPS, s.AchievedQPS,
			s.Completed, s.Errors,
			s.LatencyMS.Mean, s.LatencyMS.P50, s.LatencyMS.P99, s.LatencyMS.P999, s.LatencyMS.Max)
	}
	return tw.Flush()
}
