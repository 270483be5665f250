package core

import (
	"slices"
	"strings"
	"time"
)

// Metric selects the latency metric used to rank instances. Table 1 of the
// paper lists the candidate historical metrics; Equation 1 is PowerChief's
// combined metric, which augments history with the realtime queue length.
type Metric int

const (
	// MetricExpectedDelay is Equation 1: L·q̄ + s̄ — the delay an incoming
	// query should expect, combining historical statistics with the realtime
	// queue length. PowerChief's default.
	MetricExpectedDelay Metric = iota
	// MetricAvgQueuing ranks by mean queuing time only (Table 1 row 1).
	MetricAvgQueuing
	// MetricAvgServing ranks by mean serving time only (Table 1 row 2).
	MetricAvgServing
	// MetricAvgProcessing ranks by mean queuing+serving (Table 1 row 3).
	MetricAvgProcessing
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricExpectedDelay:
		return "expected-delay"
	case MetricAvgQueuing:
		return "avg-queuing"
	case MetricAvgServing:
		return "avg-serving"
	case MetricAvgProcessing:
		return "avg-processing"
	default:
		return "unknown-metric"
	}
}

// Ranked is one instance annotated with its latency metric and the
// statistics backing it.
type Ranked struct {
	Instance Instance
	Stage    StageControl
	Metric   time.Duration
	Queuing  time.Duration // windowed mean queuing time q̄
	Serving  time.Duration // windowed mean serving time s̄
	QueueLen int           // realtime queue length L
}

// Identifier is the bottleneck identification component (§4.2): it evaluates
// the latency metric for every live instance and produces a ranking, slowest
// (bottleneck) first.
type Identifier struct {
	Metric Metric
}

// Rank evaluates the metric over all instances. The result is sorted
// descending by metric; ties break by instance name, then by stage and
// instance order, so the ranking is deterministic. Draining instances are
// excluded — they are already leaving.
func (id Identifier) Rank(sys System, stats StatsReader) []Ranked {
	// Every stage's instance list is read once, up front, so the ranking is
	// allocated at its final size; the list of lists stays on the stack for
	// deployments of up to eight stages.
	stages := sys.Stages()
	var buf [8][]Instance
	lists := buf[:0]
	n := 0
	for _, st := range stages {
		ins := st.Instances()
		lists = append(lists, ins)
		n += len(ins)
	}
	if n == 0 {
		return nil
	}
	out := make([]Ranked, 0, n)
	for i, st := range stages {
		for _, in := range lists[i] {
			q, s, _ := stats.InstStats(in.Name())
			L := in.QueueLen()
			out = append(out, Ranked{
				Instance: in,
				Stage:    st,
				Metric:   id.eval(L, q, s),
				Queuing:  q,
				Serving:  s,
				QueueLen: L,
			})
		}
	}
	// A typed stable sort: the order sort.SliceStable gave, without its
	// reflective swapper. Names are consulted only when two metrics tie.
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Metric > b.Metric:
			return -1
		case a.Metric < b.Metric:
			return 1
		}
		return strings.Compare(a.Instance.Name(), b.Instance.Name())
	})
	return out
}

// eval computes the chosen latency metric for one instance.
func (id Identifier) eval(queueLen int, q, s time.Duration) time.Duration {
	switch id.Metric {
	case MetricExpectedDelay:
		return time.Duration(queueLen)*q + s
	case MetricAvgQueuing:
		return q
	case MetricAvgServing:
		return s
	case MetricAvgProcessing:
		return q + s
	default:
		panic("core: unknown latency metric")
	}
}

// Spread returns the metric difference between the bottleneck and the
// fastest instance — compared against the balance threshold to suppress
// oscillating reallocation (§8.1).
func Spread(ranked []Ranked) time.Duration {
	if len(ranked) < 2 {
		return 0
	}
	return ranked[0].Metric - ranked[len(ranked)-1].Metric
}
