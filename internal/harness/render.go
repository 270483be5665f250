package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"powerchief/internal/core"
)

// table renders a titled text table: the "== title ==" line, then lines
// with their tab-separated cells aligned.
func table(title string, lines []string) func(io.Writer) error {
	return func(w io.Writer) error {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "== %s ==\n", title)
		for _, l := range lines {
			fmt.Fprintln(tw, l)
		}
		return tw.Flush()
	}
}

// WriteRuntimeTrace renders one run's time series as CSV under the heading
// name: instance counts per stage and per-instance frequencies over the run.
func WriteRuntimeTrace(w io.Writer, name string, r *Result) error {
	if _, err := fmt.Fprintf(w, "# %s (%s)\n", name, r.Policy); err != nil {
		return err
	}
	return r.Trace.WriteCSV(w)
}

// trace renders r's time series under the heading name.
func trace(name string, r *Result) func(io.Writer) error {
	return func(w io.Writer) error { return WriteRuntimeTrace(w, name, r) }
}

// WriteResult renders one run's summary line.
func WriteResult(w io.Writer, r *Result) error {
	_, err := fmt.Fprintf(w,
		"%s [%s]: completed %d/%d, latency avg=%v p50=%v p99=%v, avg power=%.2fW (peak %.2fW), freq-boosts=%d, inst-boosts=%d, withdrawn=%d\n",
		r.Scenario, r.Policy, r.Completed, r.Submitted,
		r.Latency.Mean().Round(time.Millisecond), r.Latency.P50().Round(time.Millisecond),
		r.Latency.P99().Round(time.Millisecond),
		float64(r.AvgPower), float64(r.PeakPower),
		r.Boosts[core.BoostFrequency], r.Boosts[core.BoostInstance], r.Withdrawn)
	return err
}
