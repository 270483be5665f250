package stats

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func sortedCopy(a []time.Duration) []time.Duration {
	s := slices.Clone(a)
	slices.Sort(s)
	return s
}

// checkSelectKth runs selectKth(a, k) on a copy of in and checks its
// contract against the sorted input.
func checkSelectKth(t *testing.T, in []time.Duration, k int) {
	t.Helper()
	sorted := sortedCopy(in)
	a := slices.Clone(in)
	got := selectKth(a, k)
	if got != sorted[k] || a[k] != sorted[k] {
		t.Fatalf("selectKth(%v, %d) = %v, a[k] = %v, want %v", in, k, got, a[k], sorted[k])
	}
	if m := slices.Max(a[:k+1]); m != a[k] {
		t.Fatalf("selectKth(%v, %d): %v before a[k] = %v", in, k, m, a[k])
	}
	if m := slices.Min(a[k:]); m != a[k] {
		t.Fatalf("selectKth(%v, %d): %v after a[k] = %v", in, k, m, a[k])
	}
	if !slices.Equal(sortedCopy(a), sorted) {
		t.Fatalf("selectKth(%v, %d) left %v, not a permutation", in, k, a)
	}
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		at   func(i, n int) time.Duration
	}{
		{"random", func(i, n int) time.Duration { return time.Duration(rng.Intn(1000)) }},
		{"sorted", func(i, n int) time.Duration { return time.Duration(i) }},
		{"reverse", func(i, n int) time.Duration { return time.Duration(n - i) }},
		{"all-equal", func(i, n int) time.Duration { return 7 }},
		{"two-value", func(i, n int) time.Duration { return time.Duration(rng.Intn(2)) * time.Millisecond }},
		{"few-ties", func(i, n int) time.Duration { return time.Duration(rng.Intn(5)) }},
	}
	sizes := []int{100, 257, 1000}
	for n := 1; n <= 13; n++ {
		sizes = append(sizes, n)
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, n := range sizes {
				in := make([]time.Duration, n)
				for i := range in {
					in[i] = shape.at(i, n)
				}
				for k := range in {
					checkSelectKth(t, in, k)
				}
			}
		})
	}
}

func FuzzSelectKth(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint16(1))
	f.Add([]byte("abababababababababab"), uint16(9))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6}, uint16(13))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		if len(data) == 0 {
			return
		}
		in := make([]time.Duration, len(data))
		for i, b := range data {
			in[i] = time.Duration(b) * time.Microsecond
		}
		checkSelectKth(t, in, int(k)%len(in))
	})
}
