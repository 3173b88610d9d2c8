package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host reference: a fixed allocation-heavy job, independent of the
// program, timed between sweep_cold's ops and between serve_mixed's
// segments, while no request is open, so that a run's latencies and
// sweep_cold's rate can be scaled to one host speed.
//
// On a shared host the speed a process gets drifts by a quarter or more
// within minutes, with almost no stolen time: neighbours contend for
// caches and memory bandwidth, and the program's allocation-heavy
// simulation slows with them. On a 2-vCPU host, over two minutes of
// 8.5-second windows, a two-worker campaign.Run spread 0.11 to 0.20
// (interquartile range over the median) and its ratio to this job's
// time 0.03 to 0.05; a pure-ALU job tracked it worse (0.13), a pointer
// chase over 16 MiB in between (0.05). Over ten 40-second sweep_cold
// runs the raw rate spread 0.16, the rate scaled by the run's median
// reference 0.03, and scaled op by op by each op's neighbouring
// references 0.05, as that adds their noise: sweep_cold uses the run's
// factor. An open loop follows the host more closely: over seven
// serve_mixed runs the tail latency spread 0.21 raw, 0.12 scaled by the
// run's factor and 0.10 scaled segment by segment, and the median 0.12,
// 0.05 and 0.02; serve_mixed uses each segment's factor. References
// taken only before and after its whole phase did not track it.
//
// The job only observes the host: a change to the program moves the
// scaled figures as it moves the raw ones, and the raw figures are
// printed beside them.

// refNominal is the host reference time the scaled figures assume: a
// rate r measured while the reference took t is reported as
// r·t/refNominal, a latency l as l·refNominal/t.
const refNominal = 150 * time.Millisecond

// refNode is one element of the reference job's linked list.
type refNode struct {
	next *refNode
	v    [6]uint64
}

// refSink keeps the job's results reachable until the job ends.
var refSink [][]uint64

// refJob builds a 60000-node list indexed by a map, then sorts the
// node values: allocation, GC and cache misses, as the simulator has.
func refJob(seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	m := make(map[uint64]*refNode)
	var head *refNode
	for i := 0; i < 60000; i++ {
		n := &refNode{next: head}
		n.v[0] = r.Uint64()
		head = n
		m[n.v[0]%50000] = n
	}
	s := make([]uint64, 0, 60000)
	for n := head; n != nil; n = n.next {
		s = append(s, n.v[0])
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// hostRef runs the reference job on workers goroutines at once (the
// parallelism sweep_cold's ops use) from a collected heap, and returns
// its wall time and the bytes it allocated.
func hostRef(workers int) (time.Duration, uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	refSink = make([][]uint64, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				refSink[i] = refJob(int64(4*i + k))
			}
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	refSink = nil
	runtime.ReadMemStats(&ms1)
	return d, ms1.TotalAlloc - ms0.TotalAlloc
}

// hostFactor is a run's host factor: the median of its reference
// times over refNominal.
func hostFactor(refs []time.Duration) float64 {
	return median(millis(refs)) / (float64(refNominal) / float64(time.Millisecond))
}

// segmentFactor is the host factor of what ran between references k and
// k+1: their mean over refNominal.
func segmentFactor(refs []time.Duration, k int) float64 {
	return float64(refs[k]+refs[k+1]) / 2 / float64(refNominal)
}

// scaled returns xs times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// scaledLatencies returns ds divided by f.
func scaledLatencies(ds []time.Duration, f float64) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = time.Duration(float64(d) / f)
	}
	return out
}
