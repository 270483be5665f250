package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// deriveSeed maps (run seed, stream name, index) to an independent 63-bit
// seed with splitmix64. Every random input of the benchmark — scenario
// seeds, work matrices, probe inputs — comes from here, so -seed is the
// only source of randomness and two streams never share a sequence.
func deriveSeed(seed int64, stream string, i int) int64 {
	x := uint64(seed)
	for _, b := range []byte(stream) {
		x = splitmix(x ^ uint64(b))
	}
	x = splitmix(x ^ uint64(i))
	return int64(x >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// quantile returns the p-quantile (0..1) of xs by nearest rank over a sorted
// copy; 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, p)
}

// sortedQuantile is quantile over an already sorted, non-empty slice.
func sortedQuantile(s []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) computes them — the
// spread rule of the benchmark contract is stated in those terms.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// unitQuantiles returns, for each p in ps, the median over units of the
// unit's p-quantile, plus the total sample count. A disturbed stretch of the
// run moves the units it covers, not the reported number. Each unit is
// sorted once, in place.
func unitQuantiles(units [][]float64, ps ...float64) ([]float64, int) {
	per := make([][]float64, len(ps))
	total := 0
	for _, u := range units {
		if len(u) == 0 {
			continue
		}
		sort.Float64s(u)
		total += len(u)
		for i, p := range ps {
			per[i] = append(per[i], sortedQuantile(u, p))
		}
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = median(per[i])
	}
	return out, total
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsUS converts a latency sample set to microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// perCall times fn over n calls and returns nanoseconds per call. The loop
// is repeated `rounds` times and the median round is reported, so one
// preempted round does not move the number.
func perCall(rounds, n int, fn func(n int)) float64 {
	if rounds < 1 {
		rounds = 1
	}
	if n < 1 {
		n = 1
	}
	out := make([]float64, rounds)
	for r := range out {
		start := time.Now()
		fn(n)
		out[r] = float64(time.Since(start)) / float64(n)
	}
	return median(out)
}

// procStatusMB reads one kB field of /proc/self/status in MiB; 0 when the
// field is missing (off Linux).
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			if f := strings.Fields(line); len(f) >= 2 {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rssSampler reads the resident set every 20 ms from its own goroutine
// while a run measures. The mean over the samples is the reported rss_mb: a
// Go heap saw-tooths between one and two times its live size, so the
// high-water mark depends on where a collection happened to fall, while the
// mean repeats.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, procStatusMB("VmRSS:"))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean resident set in MiB, the
// sample count and the process's high-water mark. Off Linux both fall back
// to the Go runtime's Sys figure.
func (s *rssSampler) finish() (mean float64, n int, peak float64) {
	close(s.stop)
	<-s.done
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	peak = procStatusMB("VmHWM:")
	if len(s.samples) == 0 || sum == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sys := float64(ms.Sys) / (1 << 20)
		return sys, 0, sys
	}
	return sum / float64(len(s.samples)), len(s.samples), peak
}

// digest is a running SHA-256 over the checked outputs of a run.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add folds one formatted record into the digest.
func (d *digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

// sum returns the current hex digest without disturbing the running state.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// settle brings the heap to a comparable state before a timed section.
func settle() { runtime.GC() }
