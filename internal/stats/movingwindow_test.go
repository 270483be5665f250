package stats

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestPercentilesGrid: one read of a quantile grid returns what one
// Percentile call per point does — and, for the exact window, what nearest
// rank over the independently sorted live samples does — on exact and
// bucketed windows, from an empty window through a single sample to one
// that evicts. An empty read reports false and leaves out untouched.
func TestPercentilesGrid(t *testing.T) {
	grid := []float64{0.5, 0.9, 0.99, 0.999, 0, 1, -0.5, 1.5}
	span := 20 * time.Second
	type window interface {
		MovingWindow
		Percentile(p float64) (time.Duration, bool)
		Percentiles(ps []float64, out []time.Duration) bool
	}
	kinds := map[string]func() window{
		"exact":    func() window { return NewWindow(span) },
		"bucketed": func() window { return NewBucketWindow(span, 16) },
	}
	for kind, mk := range kinds {
		for _, samples := range []int{0, 1, 2, 7, 64, 65, 600} {
			name := fmt.Sprintf("%s/%d samples", kind, samples)
			w := mk()
			rng := rand.New(rand.NewSource(int64(samples)))
			now := time.Duration(0)
			var fed []Sample
			for i := 0; i < samples; i++ {
				now += time.Duration(rng.Intn(100)) * time.Millisecond
				v := time.Duration(1+rng.Intn(3000)) * time.Millisecond
				w.Add(now, v)
				fed = append(fed, Sample{At: now, Value: v})
			}
			w.Advance(now)
			got := make([]time.Duration, len(grid))
			for i := range got {
				got[i] = -1
			}
			ok := w.Percentiles(grid, got)
			if ok != (samples > 0) {
				t.Fatalf("%s: ok = %v", name, ok)
			}
			var live []time.Duration
			for _, f := range fed {
				if f.At >= now-span {
					live = append(live, f.Value)
				}
			}
			sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
			for i, p := range grid {
				if !ok {
					if got[i] != -1 {
						t.Errorf("%s: empty read wrote out[%d] = %v", name, i, got[i])
					}
					continue
				}
				if one, oneOK := w.Percentile(p); !oneOK || one != got[i] {
					t.Errorf("%s: p=%v: grid %v, single %v,%v", name, p, got[i], one, oneOK)
				}
				if kind == "exact" {
					q := min(max(p, 0), 1)
					if want := live[int(q*float64(len(live)-1)+0.5)]; got[i] != want {
						t.Errorf("%s: p=%v: grid %v, sorted live samples %v", name, p, got[i], want)
					}
				}
			}
		}
	}
}
