package core

import (
	"slices"
	"strings"
	"time"

	"powerchief/internal/stage"
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

// rankOnStack is the largest ranking whose rows are sorted in stack buffers;
// a larger one sorts heap slices.
const rankOnStack = 16

// Rank evaluates the metric over all instances. The result is sorted
// descending by metric; ties break by instance name, then by stage and
// instance order, so the ranking is deterministic. Draining instances are
// excluded — they are already leaving.
func (id Identifier) Rank(sys System, stats StatsReader) []Ranked {
	stages := sys.Stages()
	var buf [8][]Instance
	lists, n := instanceLists(stages, &buf)
	if n == 0 {
		return nil
	}
	out := make([]Ranked, n)
	id.rankInto(out, stages, lists, stats)
	return out
}

// rankInto writes the ranking of lists — stage i's instances at lists[i] —
// into out, which holds one element per instance. Each instance's row goes
// into a scratch slice in visit order; the sort moves a permutation of the
// row indexes — metric descending, names read only when two metrics tie,
// then visit order — and each row is copied once, into its final place.
func (id Identifier) rankInto(out []Ranked, stages []StageControl, lists [][]Instance, stats StatsReader) {
	var rowBuf [rankOnStack]Ranked
	var orderBuf [rankOnStack]int32
	rows, order := rowBuf[:0], orderBuf[:0]
	if n := len(out); n > rankOnStack {
		rows, order = make([]Ranked, 0, n), make([]int32, 0, n)
	}
	for i, ins := range lists {
		for j, in := range ins {
			q, s, _ := instStatsAt(stats, i, j, in)
			L := in.QueueLen()
			order = append(order, int32(len(rows)))
			rows = append(rows, Ranked{Instance: in, Stage: stages[i], Metric: id.eval(L, q, s), Queuing: q, Serving: s, QueueLen: L})
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &rows[a], &rows[b]
		switch {
		case ra.Metric > rb.Metric:
			return -1
		case ra.Metric < rb.Metric:
			return 1
		}
		if c := strings.Compare(ra.Instance.Name(), rb.Instance.Name()); c != 0 {
			return c
		}
		return int(a - b)
	})
	for i, o := range order {
		out[i] = rows[o]
	}
}

// instStatsAt reads the statistics of in, instance j of stage i of the
// system being ranked or captured. A capture of that system serves them by
// position (its own name confirms the match: a capture gives equal names
// equal statistics), the aggregator through the record slot of an instance
// whose records carry one, and any other reader by name. The instances that
// carry a slot are matched by concrete type: an assertion to an interface
// goes through the runtime's type-assertion cache, which fills at random
// moments and allocates when it does.
func instStatsAt(stats StatsReader, i, j int, in Instance) (queuing, serving time.Duration, ok bool) {
	switch st := stats.(type) {
	case *Aggregator:
		switch in := in.(type) {
		case *stage.Instance:
			return st.instStats(in.Name(), in.Slot())
		case *planInstance:
			return st.instStats(in.Name(), in.Slot())
		}
	case *Snapshot:
		return st.statsAt(i, j, in.Name())
	case *SnapshotView:
		return st.snap.statsAt(i, j, in.Name())
	}
	return stats.InstStats(in.Name())
}

// instanceLists reads every stage's instance list once, up front, and counts
// the instances; the list of lists stays in the caller's buffer for
// deployments of up to eight stages.
func instanceLists(stages []StageControl, buf *[8][]Instance) ([][]Instance, int) {
	lists, n := buf[:0], 0
	for _, st := range stages {
		ins := st.Instances()
		lists = append(lists, ins)
		n += len(ins)
	}
	return lists, n
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
