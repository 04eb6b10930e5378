// Package perfstat converts wall-clock measurements into the paper's
// reporting unit: elapsed CPU cycles per physical core per input row
// (paper §6). The authors read hardware cycle counters on a fixed 3.4 GHz
// part; portable Go cannot, so the package estimates the effective CPU
// frequency once — from the OS when available, else by timing a
// serially-dependent add chain that retires one add per cycle on any
// modern core — and scales durations by it.
package perfstat

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

var (
	freqOnce sync.Once
	freqHz   float64
)

// Hz returns the estimated CPU frequency used for cycle conversion.
func Hz() float64 {
	freqOnce.Do(func() {
		if hz := cpuinfoHz(); hz > 0 {
			freqHz = hz
			return
		}
		freqHz = calibrateHz()
	})
	return freqHz
}

// cpuinfoHz reads the first "cpu MHz" line of /proc/cpuinfo (Linux);
// returns 0 when unavailable.
func cpuinfoHz() float64 {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cpu MHz") {
			continue
		}
		parts := strings.SplitN(line, ":", 2)
		if len(parts) != 2 {
			continue
		}
		mhz, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || mhz <= 0 {
			continue
		}
		return mhz * 1e6
	}
	return 0
}

// calibrateHz times a dependent add chain. Each iteration's add depends on
// the previous result, so the chain retires at the core's add latency of
// one cycle regardless of superscalar width.
func calibrateHz() float64 {
	const n = 200_000_000
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		acc := chase(n)
		elapsed := time.Since(start).Seconds()
		sink = acc
		if hz := float64(n) / elapsed; hz > best {
			best = hz
		}
	}
	return best
}

var sink uint64

//go:noinline
func chase(n int) uint64 {
	acc := uint64(1)
	for i := 0; i < n; i += 8 {
		// Eight serially-dependent adds per iteration amortize loop
		// overhead; the xor keeps the compiler from folding the chain.
		acc += acc ^ 1
		acc += acc ^ 2
		acc += acc ^ 3
		acc += acc ^ 4
		acc += acc ^ 5
		acc += acc ^ 6
		acc += acc ^ 7
		acc += acc ^ 8
	}
	return acc
}

// Cores returns the number of logical CPUs usable by this process —
// recorded alongside Hz in benchmark archives so cycles/row numbers stay
// interpretable across machines.
func Cores() int { return runtime.NumCPU() }

// CyclesPerRow converts an elapsed duration over rows input rows into
// cycles/row at the estimated frequency.
func CyclesPerRow(elapsed time.Duration, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return elapsed.Seconds() * Hz() / float64(rows)
}

// Measurement is one timed kernel run.
type Measurement struct {
	Rows    int
	Elapsed time.Duration
}

// CyclesPerRow reports the measurement in the paper's unit.
func (m Measurement) CyclesPerRow() float64 { return CyclesPerRow(m.Elapsed, m.Rows) }

// Time runs fn over rows input rows repeatedly until at least minDuration
// has elapsed, then reports the median single-run measurement — the paper
// reports medians of repeated runs (§6).
func Time(rows int, minDuration time.Duration, fn func()) Measurement {
	var runs []time.Duration
	var total time.Duration
	for total < minDuration || len(runs) < 3 {
		start := time.Now()
		fn()
		d := time.Since(start)
		runs = append(runs, d)
		total += d
		if len(runs) >= 10 && total >= minDuration {
			break
		}
	}
	// Median.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j] < runs[j-1]; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	return Measurement{Rows: rows, Elapsed: runs[len(runs)/2]}
}
