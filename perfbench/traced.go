package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// tracedRun runs the timed phase with spans around every call the
// benchmark makes into a layer, then the per-layer probes. It prints the
// self-time ladder, writes the spans out and reports the per-layer
// metrics.
func tracedRun(e *env, w workload, res *result) error {
	tr := newTracer()
	c0 := w.counters()
	ph := beginPhase()
	ls, err := w.load(e, e.seconds, tr)
	if err != nil {
		return err
	}
	pr := ph.end(ls)
	cnt := c0.diff(w.counters())
	loadSpans := tr.snapshot()
	m, err := ladder(e, w.ladderInputs(), tr, &cnt)
	if err != nil {
		return err
	}
	m["serve.hit_ratio"] = ratio(cnt.Hits, cnt.Misses)
	m["serve.simulated"] = float64(cnt.Misses)
	m["serve.shed"] = float64(cnt.Shed)
	m["cluster.cache_hit_ratio"] = ratio(cnt.ProxyHits, cnt.ProxyMisses)
	m["runtime.gc_cpu_pct"] = pr.gcCPUPct
	m["runtime.gc_cycles_per_op"] = pr.gcCyclesPerOp
	m["loadgen.late_ms_p99"] = quantile(millis(ls.late), 0.99)
	m["trace.overhead_pct"] = 100 * float64(len(loadSpans)) * float64(spanCost().cpuPerCall) / float64(pr.cpu)

	spans := tr.snapshot()
	fmt.Fprintf(os.Stderr, "self time by layer, traced load (%d spans over %.2f s):\n", len(loadSpans), ls.wall.Seconds())
	printLadder(os.Stderr, selfTimes(loadSpans))
	fmt.Fprintf(os.Stderr, "self time by layer, per-layer probes (%d spans):\n", len(spans)-len(loadSpans))
	printLadder(os.Stderr, selfTimes(spans[len(loadSpans):]))
	if err := writeSpans(spanFile(e), spans); err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s is %v", k, v)
		}
		u := unitOf(k)
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", k, v, u)
		res.Metrics[k] = metric{Value: v, Unit: u}
	}
	return nil
}

// spanCost is the CPU time one begin/end pair takes on tracers of their
// own, 1000 spans each. The traced load's span count times this cost,
// over the load's CPU time, is the share of the traced run that tracing
// added; lock contention between concurrent spans is not in it.
func spanCost() cost {
	return measure(func() int {
		tr := newTracer()
		for i := 0; i < 1000; i++ {
			tr.end(tr.begin("perfbench", "span", int64(i), 0))
		}
		return 1000
	})
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ns", "ns"}, {"_ms", "ms"}, {"_ms_p99", "ms"}, {"_pct", "%"},
		{"_kb", "KiB"}, {"_mb", "MiB"}, {"_bytes", "B"}, {"_k", "1e3"},
		{"_ratio", "ratio"}, {"_eff", "ratio"}, {"_per_op", "1/op"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
