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

// rankKey is one ranking row without its interfaces: the sort moves these
// pointer-free keys, and each Ranked row is written once, in final order.
type rankKey struct {
	metric, q, s time.Duration
	queueLen     int
	stage, inst  int32
}

// rankOnStack is the largest ranking whose keys stay on the stack; a larger
// one sorts a heap slice.
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
	var stack [rankOnStack]rankKey
	keys := stack[:0]
	if n > rankOnStack {
		keys = make([]rankKey, 0, n)
	}
	for i, ins := range lists {
		for j, in := range ins {
			q, s, _ := stats.InstStats(in.Name())
			L := in.QueueLen()
			keys = append(keys, rankKey{metric: id.eval(L, q, s), q: q, s: s, queueLen: L, stage: int32(i), inst: int32(j)})
		}
	}
	// Metric descending, name ascending — names are read only when two
	// metrics tie — and equal keys in visit order.
	slices.SortStableFunc(keys, func(a, b rankKey) int {
		switch {
		case a.metric > b.metric:
			return -1
		case a.metric < b.metric:
			return 1
		}
		return strings.Compare(lists[a.stage][a.inst].Name(), lists[b.stage][b.inst].Name())
	})
	out := make([]Ranked, n)
	for i, k := range keys {
		out[i] = Ranked{
			Instance: lists[k.stage][k.inst],
			Stage:    stages[k.stage],
			Metric:   k.metric,
			Queuing:  k.q,
			Serving:  k.s,
			QueueLen: k.queueLen,
		}
	}
	return out
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
