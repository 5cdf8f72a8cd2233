package main

import (
	"math"
	"slices"
	"time"
)

// The timings the benchmark gates are normalised for the speed of the CPU
// the run got. On a shared host that speed swings by up to 2× from minute
// to minute, even with no steal time: a hyperthread sibling's load slows
// every instruction. So each timed stretch is bracketed by a fixed
// calibration kernel on the same goroutine, and its wall time d becomes
// d × calibNominal ÷ c, where c is the kernel's time around it: the time
// the stretch would take on a CPU that runs the kernel in calibNominal.
//
// The kernel is part of the metric definition. Changing it, or
// calibNominal, re-bases every normalised timing.

// calibNominal is the calibration kernel's time on the reference CPU. It
// only sets the scale of the normalised timings.
const calibNominal = 500 * time.Microsecond

// calibReps is how many times calibrate runs the kernel; the fastest run
// counts, so an interruption inside one run does not.
const calibReps = 3

// calibKernel is a fixed mix of the work the flow does: a dense Cholesky
// factorisation, an integer sort and map updates. It uses only the
// standard library, so the program under test cannot change its cost.
func calibKernel() float64 {
	const n = 48
	var a [n * n]float64
	for i := range a {
		a[i] = float64(i%11) + 1
	}
	for i := range n {
		a[i*n+i] += 12 * n
	}
	for j := range n {
		s := a[j*n+j]
		for k := range j {
			s -= a[j*n+k] * a[j*n+k]
		}
		d := math.Sqrt(s)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := range j {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	var xs [4096]int
	x := uint64(2463534242)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x % 100000)
	}
	slices.Sort(xs[:])
	m := make(map[int]int, 64)
	for i := range 3000 {
		m[xs[i%len(xs)]] += i
	}
	return a[n*n-1] + float64(len(m))
}

// calibSink keeps the kernel's result alive.
var calibSink float64

// calibrate times the calibration kernel and returns its fastest time.
func calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	for range calibReps {
		t := time.Now()
		calibSink += calibKernel()
		best = min(best, time.Since(t))
	}
	return best
}

// normalise scales wall time d, measured while the kernel took c, to the
// reference CPU.
func normalise(d, c time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibNominal) / float64(c))
}
