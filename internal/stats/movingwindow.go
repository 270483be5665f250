package stats

import (
	"slices"
	"sync"
	"time"
)

// MovingWindow is the shared contract of the sliding statistics windows: the
// exact sample-keeping Window and the constant-memory BucketWindow. The
// Command Center aggregator programs against this interface so deployments
// can trade exactness (deterministic paper reproduction on the DES engine)
// for bounded memory (unbounded live runs) without touching the consumers.
//
// Implementations are not safe for concurrent use; wrap them in a Striped
// set (or an external lock) when writers race.
type MovingWindow interface {
	// Span returns the window length in virtual time.
	Span() time.Duration
	// Add records a sample at virtual time at. Timestamps must not
	// decrease (Window panics; BucketWindow clamps).
	Add(at, value time.Duration)
	// Advance evicts samples that have fallen out of the window as of now
	// without adding a new one.
	Advance(now time.Duration)
	// Len returns the number of samples currently inside the window.
	Len() int
	// Sum returns the sum of the samples currently inside the window.
	Sum() time.Duration
	// Mean returns the average of the samples in the window, and false
	// when the window is empty.
	Mean() (time.Duration, bool)
	// MeanOr returns the window mean, or def when the window is empty.
	MeanOr(def time.Duration) time.Duration
	// Percentile returns the p-quantile (p in [0,1]) of the samples in the
	// window, and false when empty. Window is exact (nearest rank);
	// BucketWindow interpolates inside log-spaced bins.
	Percentile(p float64) (time.Duration, bool)
	// Max returns the largest sample in the window, and false when empty.
	Max() (time.Duration, bool)
	// Reset discards all samples but keeps the span and time floor.
	Reset()
}

// Compile-time conformance of both window kinds.
var (
	_ MovingWindow = (*Window)(nil)
	_ MovingWindow = (*BucketWindow)(nil)
)

// Striped shards one logical moving window across independently locked
// stripes so concurrent writers never contend on a single mutex; statistics
// are merged across the stripes on read. The merged mean and (for exact
// stripes) percentile are computed from the union multiset, so they are
// identical to a single window fed the same samples — striping changes the
// synchronization structure, not the numbers.
//
// Writers pick a stripe with any well-spread hint (e.g. the query ID);
// reads take each stripe lock briefly in turn, never all at once.
type Striped struct {
	stripes []windowStripe
}

// windowStripe pads each lock onto its own cache line so stripe locks do not
// false-share under concurrent writers.
type windowStripe struct {
	mu   sync.Mutex
	last time.Duration // monotone floor: concurrent clocks may race Add order
	w    MovingWindow
	_    [64]byte
}

// NewStriped builds a striped window set with n stripes (n <= 0 applies the
// default of 8), each created by mk. All stripes must share the same span.
func NewStriped(n int, mk func() MovingWindow) *Striped {
	if n <= 0 {
		n = 8
	}
	s := &Striped{stripes: make([]windowStripe, n)}
	span := time.Duration(-1)
	for i := range s.stripes {
		w := mk()
		if w == nil {
			panic("stats: striped window constructor returned nil")
		}
		if span < 0 {
			span = w.Span()
		} else if w.Span() != span {
			panic("stats: striped windows must share one span")
		}
		s.stripes[i].w = w
	}
	return s
}

// Stripes returns the number of stripes.
func (s *Striped) Stripes() int { return len(s.stripes) }

// Span returns the common window length.
func (s *Striped) Span() time.Duration { return s.stripes[0].w.Span() }

// Add records a sample on the stripe selected by hint. Timestamps may
// arrive slightly out of order across goroutines (each reads the clock
// before reaching the stripe lock); the stripe clamps them to its monotone
// floor rather than panicking, trading at most the reordering skew of
// accuracy for liveness.
func (s *Striped) Add(hint uint64, at, value time.Duration) {
	st := &s.stripes[hint%uint64(len(s.stripes))]
	st.mu.Lock()
	if at < st.last {
		at = st.last
	} else {
		st.last = at
	}
	st.w.Add(at, value)
	st.mu.Unlock()
}

// advanceLocked moves the stripe's eviction horizon to now, clamped to the
// stripe's monotone floor. Caller holds st.mu.
func (st *windowStripe) advanceLocked(now time.Duration) {
	if now < st.last {
		now = st.last
	} else {
		st.last = now
	}
	st.w.Advance(now)
}

// Len returns the number of samples across all stripes without advancing
// eviction (advisory; use Mean/Percentile for evicted-as-of-now reads).
func (s *Striped) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.w.Len()
		st.mu.Unlock()
	}
	return n
}

// Mean advances every stripe to now and returns the mean over the union of
// their samples — sum of stripe sums over total count, exactly the mean a
// single window holding all samples would report.
func (s *Striped) Mean(now time.Duration) (time.Duration, bool) {
	var sum time.Duration
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.advanceLocked(now)
		sum += st.w.Sum()
		n += st.w.Len()
		st.mu.Unlock()
	}
	if n == 0 {
		return 0, false
	}
	return sum / time.Duration(n), true
}

// Max advances every stripe to now and returns the largest sample across
// the union, and false when all stripes are empty.
func (s *Striped) Max(now time.Duration) (time.Duration, bool) {
	var max time.Duration
	found := false
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.advanceLocked(now)
		if m, ok := st.w.Max(); ok && (!found || m > max) {
			max = m
			found = true
		}
		st.mu.Unlock()
	}
	return max, found
}

// Percentile advances every stripe to now and returns the p-quantile over
// the union of their samples: the one-element case of Percentiles.
func (s *Striped) Percentile(now time.Duration, p float64) (time.Duration, bool) {
	var out [1]time.Duration
	ok := s.Percentiles(now, []float64{p}, out[:])
	return out[0], ok
}

// Percentiles advances every stripe to now and writes the ps[i]-quantile
// (clamped to [0,1]) over the union of their samples into out[i], reading
// and merging the stripes once for the whole grid. It reports false, with
// out holding nothing useful, when every stripe is empty. Exact stripes
// merge their raw values (nearest rank over the union, sorted once —
// identical to a single exact window); bucketed stripes merge their latency
// bins (interpolated, same error bound as a single BucketWindow). Mixed or
// foreign MovingWindow kinds fall back to the largest per-stripe percentile,
// an upper-biased approximation.
func (s *Striped) Percentiles(now time.Duration, ps []float64, out []time.Duration) bool {
	// Exact path: gather the union of retained samples.
	if _, exact := s.stripes[0].w.(*Window); exact {
		var vals []time.Duration
		allExact := true
		for i := range s.stripes {
			st := &s.stripes[i]
			st.mu.Lock()
			st.advanceLocked(now)
			if w, ok := st.w.(*Window); ok {
				vals = w.appendValues(vals)
			} else {
				allExact = false
			}
			st.mu.Unlock()
		}
		if allExact {
			if len(vals) == 0 {
				return false
			}
			slices.Sort(vals)
			for i, p := range ps {
				out[i] = nearestRank(vals, p)
			}
			return true
		}
	}
	// Bucketed path: merge fixed latency bins across stripes.
	if _, bucketed := s.stripes[0].w.(*BucketWindow); bucketed {
		var acc binAccumulator
		allBucketed := true
		for i := range s.stripes {
			st := &s.stripes[i]
			st.mu.Lock()
			st.advanceLocked(now)
			if w, ok := st.w.(*BucketWindow); ok {
				w.accumulateBins(&acc)
			} else {
				allBucketed = false
			}
			st.mu.Unlock()
		}
		if allBucketed {
			for i, p := range ps {
				out[i], _ = acc.quantile(p) // clamps p itself
			}
			return acc.count > 0
		}
	}
	// Fallback for foreign implementations: upper-biased merge.
	found := false
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.advanceLocked(now)
		if st.w.Len() > 0 {
			for j, p := range ps {
				if v, _ := st.w.Percentile(min(max(p, 0), 1)); !found || v > out[j] {
					out[j] = v
				}
			}
			found = true
		}
		st.mu.Unlock()
	}
	return found
}

// nearestRank returns the p-quantile (p clamped to [0,1]) of a non-empty
// ascending slice by nearest rank.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(min(max(p, 0), 1)*float64(len(sorted)-1)+0.5)]
}

// Reset discards all samples in every stripe; spans and time floors persist.
func (s *Striped) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.w.Reset()
		st.mu.Unlock()
	}
}
