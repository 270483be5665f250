package stats

import "time"

// selectKth reorders a so that a[k] holds the value slices.Sorted(a)[k]
// would, nothing before it is greater and nothing after it is smaller, and
// returns a[k]. It is a quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal latencies settle in one pass, and it
// costs O(len(a)) on average where a sort costs O(len(a) log len(a)). An
// order statistic is a unique value, so every quantile read through it is the
// one the sorted slice gives. It panics unless 0 <= k < len(a).
func selectKth(a []time.Duration, k int) time.Duration {
	lo, hi := 0, len(a) // rank k lies in a[lo:hi]
	for hi-lo > 12 {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		pivot := max(min(x, y), min(max(x, y), z))
		// a[lo:lt] < pivot, a[lt:i] == pivot, a[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return a[k]
}

// rank is the nearest-rank index of the p-quantile (p clamped to [0,1]) in
// n ascending values.
func rank(n int, p float64) int {
	return int(min(max(p, 0), 1)*float64(n-1) + 0.5)
}
