package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs and how many
// values lie beyond it. A tail percentile counts only when at least
// ten values lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memCounters are the Go runtime's cumulative allocation and GC counts.
type memCounters struct{ mallocs, gcs int64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: int64(ms.Mallocs), gcs: int64(ms.NumGC)}
}

func (m memCounters) since(before memCounters) memCounters {
	return memCounters{mallocs: m.mallocs - before.mallocs, gcs: m.gcs - before.gcs}
}

// peakRSSMiB is the peak resident set of this process.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest hashes witness bitstrings in request order, one per line.
func digest(bitstrings []string) string {
	h := sha256.New()
	for _, b := range bitstrings {
		h.Write([]byte(b))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
