package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{40, 0.75, true}, {39, 0.75, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 0.5}, {45, 0.75}, {100, 0.9}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: quantile must sort
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "sweep", Start: 0, End: 100},
		// Two concurrent workers overlap on [30, 40); a third child runs
		// past the parent's end and is clipped to it.
		{ID: 2, Parent: 1, Layer: "campaign", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "campaign", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "store", Start: 80, End: 120},
		// A grandchild is covered by its own parent, not by the root.
		{ID: 5, Parent: 2, Layer: "routing", Start: 15, End: 20},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Layer] = r
	}
	// sweep: 100 minus the 70 that the union [10,60) ∪ [80,100) covers.
	want := map[string]struct {
		total, self time.Duration
		n           int
	}{
		"sweep":    {100, 30, 1},
		"campaign": {30 + 30, 25 + 30, 2},
		"store":    {40, 40, 1},
		"routing":  {5, 5, 1},
	}
	for layer, w := range want {
		r := got[layer]
		if r.Total != w.total || r.Self != w.self || r.Spans != w.n {
			t.Errorf("%s: total %d self %d spans %d, want %d %d %d", layer, r.Total, r.Self, r.Spans, w.total, w.self, w.n)
		}
	}
	if c := covered(0, 100, nil); c != 0 {
		t.Errorf("covered with no children = %d", c)
	}
	if c := covered(0, 100, []span{{Start: 20, End: 30}, {Start: 20, End: 30}, {Start: 25, End: 28}}); c != 10 {
		t.Errorf("covered by nested duplicates = %d, want 10", c)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin("serve", "x", 1, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded span %d", id)
	}
	tr = newTracer()
	a := tr.begin("sweep", "op", 7, 0)
	b := tr.begin("campaign", "run", 7, a)
	tr.end(b)
	if n := len(tr.snapshot()); n != 1 {
		t.Fatalf("snapshot holds %d finished spans, want 1 (the open root is left out)", n)
	}
	tr.end(a)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != a || s[1].Op != 7 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

func TestScheduleCountsDueTimesInWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, period: 5 * time.Millisecond}
	if n := s.count(50 * time.Millisecond); n != 10 {
		t.Errorf("count(50ms) at 5ms = %d, want 10 (due at 0..45 ms)", n)
	}
	if n := s.count(51 * time.Millisecond); n != 11 {
		t.Errorf("count(51ms) = %d, want 11", n)
	}
	s.offset = 2 * time.Millisecond
	if n := s.count(50 * time.Millisecond); n != 10 {
		t.Errorf("count(50ms) offset 2ms = %d, want 10 (due at 2..47 ms)", n)
	}
	if n := s.count(2 * time.Millisecond); n != 0 {
		t.Errorf("count inside the offset = %d, want 0", n)
	}
	if d := s.due(3).Sub(t0); d != 17*time.Millisecond {
		t.Errorf("due(3) = +%v, want +17ms", d)
	}
}

// fakeClock advances only when slept on, plus any stall injected
// before a given hand-off.
type fakeClock struct {
	now    time.Time
	stalls map[int]time.Duration
	sleeps int
}

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Time { return f.now },
		sleep: func(d time.Duration) {
			f.now = f.now.Add(d + f.stalls[f.sleeps])
			f.sleeps++
		},
	}
}

func TestDispatchRecordsLagAgainstDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, period: 10 * time.Millisecond}
	// The generator oversleeps by 25 ms on its third wait (before
	// arrival 3): that hand-off and the ones whose due times passed
	// meanwhile run late, and none of them is moved to a later due time.
	fc := &fakeClock{now: t0, stalls: map[int]time.Duration{2: 25 * time.Millisecond}}
	window := 60 * time.Millisecond
	ch := make(chan arrival, s.count(window))
	late := dispatch(s, window, ch, fc.clock())
	// Nobody read ch while dispatch ran: a full-size buffer keeps a slow
	// connection from stalling the generator.
	var got []arrival
	for a := range ch {
		got = append(got, a)
	}
	if len(got) != 6 || len(late) != 6 {
		t.Fatalf("%d arrivals, %d lateness samples, want 6", len(got), len(late))
	}
	wantLate := []time.Duration{0, 0, 0, 25, 15, 5}
	for i, a := range got {
		if a.i != i || !a.due.Equal(s.due(i)) {
			t.Errorf("arrival %d: index %d due +%v, want due +%v", i, a.i, a.due.Sub(t0), s.due(i).Sub(t0))
		}
		if late[i] != wantLate[i]*time.Millisecond {
			t.Errorf("arrival %d: late %v, want %v", i, late[i], wantLate[i]*time.Millisecond)
		}
	}
}

//go:noinline
func spinInner(x uint64) uint64 {
	for i := 0; i < 1000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

//go:noinline
func spinOuter(d time.Duration) uint64 {
	var x uint64
	for t0 := processCPU(); processCPU()-t0 < d; {
		for i := 0; i < 1000; i++ {
			x = spinInner(x)
		}
	}
	return x
}

func TestCPUProfileShareOfFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinOuter(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	suffix := func(s string) func(string) bool { return func(f string) bool { return strings.HasSuffix(f, s) } }
	share, n := p.share(suffix(".spinOuter"), func(st []string) bool { return hasFrame(st, suffix(".spinInner")) })
	if n < 10 || share < 0.9 {
		t.Fatalf("%d samples under spinOuter, %.2f of them in spinInner; want >= 10 and >= 0.9", n, share)
	}
	if share, _ := p.share(suffix(".spinOuter"), func(st []string) bool { return isDESLoop(innermostRepo(st)) }); share != 0 {
		t.Errorf("DES share of a spin loop = %.2f, want 0", share)
	}
}

func TestDESLoopFrames(t *testing.T) {
	for f, want := range map[string]bool{
		"repro/internal/des.(*Simulator).RunUntil": true,
		"repro/internal/des.(*eventQueue).Push":    true,
		"repro/internal/des.(*RNG).Float64":        false,
		"repro/internal/campaign.Run.func3":        false,
	} {
		if got := isDESLoop(f); got != want {
			t.Errorf("isDESLoop(%q) = %v, want %v", f, got, want)
		}
	}
	if got := innermostRepo([]string{"runtime.mallocgc", "container/heap.Push", "repro/internal/des.(*Simulator).ScheduleAt", "repro/internal/campaign.Run"}); got != "repro/internal/des.(*Simulator).ScheduleAt" {
		t.Errorf("innermostRepo = %q", got)
	}
}

func TestHostFactorCancelsAUniformSlowdown(t *testing.T) {
	refs := []time.Duration{140 * time.Millisecond, 150 * time.Millisecond, 290 * time.Millisecond}
	if got := hostFactor(refs); got != 1 {
		t.Errorf("hostFactor = %g, want 1 (median reference equals refNominal)", got)
	}
	// A run on a host half as fast: its raw rate halves and its
	// references double, so the scaled rate is unchanged.
	slow := []time.Duration{2 * refs[0], 2 * refs[1], 2 * refs[2]}
	if fast, half := scaled([]float64{8}, hostFactor(refs))[0], scaled([]float64{4}, hostFactor(slow))[0]; fast != half {
		t.Errorf("scaled rates differ: %g at full speed, %g at half speed", fast, half)
	}
	if got, want := segmentFactor(refs, 1), 220.0/150; got != want {
		t.Errorf("segmentFactor(1) = %g, want %g (mean of references 1 and 2)", got, want)
	}
}
