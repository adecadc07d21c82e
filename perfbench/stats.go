package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer samples is one outlier, not a tail.
const tailBeyond = 10

// latencies is one sample set of durations.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	out := append(latencies(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median is the middle sample (the mean of the two middle samples for an
// even count); 0 for an empty set.
func (l latencies) median() time.Duration {
	s := l.sorted()
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile that still has at least tailBeyond
// samples above it, with that percentile's rank (0–100). ok is false when
// the set has too few samples to have one.
func (l latencies) tail() (value time.Duration, pct float64, ok bool) {
	s := l.sorted()
	n := len(s)
	if n <= tailBeyond {
		return 0, 0, false
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// tailOrMax is the tail, or the largest sample when the set is too small
// to have one (a run shorter than its workload's minimum sample count).
func (l latencies) tailOrMax() time.Duration {
	if t, _, ok := l.tail(); ok {
		return t
	}
	s := l.sorted()
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stopwatch reads wall-clock and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// startSetup collects garbage before starting the watch, so every repeated
// set-up starts from the same heap state and pays no earlier work's GC.
func startSetup() stopwatch {
	runtime.GC()
	return startWatch()
}

// elapsed returns the wall-clock and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTime is the CPU time every thread of the process has used, user and
// system. On a virtual machine it excludes time the host stole from it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recoveryOverhead is the median, over kill drills, of the batch that
// absorbed a kill minus the median of the unkilled batches next to it.
// batch[i] is batch i's latency and killed marks the drill batches; each
// drill compares against up to `around` unkilled batches on each side.
func recoveryOverhead(batch []time.Duration, killed map[int]bool, around int) (time.Duration, bool) {
	var over latencies
	for k := range killed {
		if k < 0 || k >= len(batch) {
			continue
		}
		var near latencies
		for i := k - 1; i >= 0 && len(near) < around; i-- {
			if !killed[i] {
				near = append(near, batch[i])
			}
		}
		after := 0
		for i := k + 1; i < len(batch) && after < around; i++ {
			if !killed[i] {
				near = append(near, batch[i])
				after++
			}
		}
		if len(near) > 0 {
			over = append(over, batch[k]-near.median())
		}
	}
	if len(over) == 0 {
		return 0, false
	}
	return over.median(), true
}
