package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"effitest"
	"effitest/fleet/httpapi"
)

// digest is a chip's outcome in a comparable form: every field of its
// wire result, floats by their bits, the buffer vector X hashed.
type digest struct {
	chipIndex, iterations int
	scanBits              int64
	configured, passed    bool
	xi, achieved, lo, hi  uint64
	x                     uint64
	err                   string
}

// digestWire digests one result as it travels the fleet's NDJSON stream.
func digestWire(r httpapi.ChipResult) digest {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range r.X {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return digest{
		chipIndex:  r.ChipIndex,
		iterations: r.Iterations,
		scanBits:   r.ScanBits,
		configured: r.Configured,
		passed:     r.Passed,
		xi:         math.Float64bits(r.Xi),
		achieved:   math.Float64bits(r.AchievedPeriod),
		lo:         math.Float64bits(r.BoundsLoSum),
		hi:         math.Float64bits(r.BoundsHiSum),
		x:          h.Sum64(),
		err:        r.Error,
	}
}

// digestResult digests an in-process result through the same wire form,
// so in-process and fleet outcomes compare field for field.
func digestResult(r effitest.ChipResult) digest { return digestWire(httpapi.ResultWire(r)) }

// mismatches counts the positions where got differs from want; positions
// missing from got count as mismatches.
func mismatches(want, got []digest) int {
	bad := max(len(want)-len(got), 0)
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			bad++
		}
	}
	return bad + max(len(got)-len(want), 0)
}

// populationStats is the deterministic flow quality of a reference
// population: final-test yield and tester iterations per chip.
func populationStats(ref []digest) (yieldPct, itersPerChip float64) {
	pass, iters := 0, 0
	for _, d := range ref {
		if d.passed {
			pass++
		}
		iters += d.iterations
	}
	n := float64(len(ref))
	return 100 * ratio(float64(pass), n), ratio(float64(iters), n)
}
