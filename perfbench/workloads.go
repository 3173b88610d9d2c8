package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/des"
	"repro/internal/sweep"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
)

// ---- sweep_cold ----------------------------------------------------------

// sweepCold runs fresh grids through sweep.RunEach into a fresh
// persistent store per op. Seeds derive from (seed, op), so no scenario
// ever hits.
type sweepCold struct {
	seed     uint64
	op0      []sweep.ScenarioRun // op 0's runs, both grids, grid order
	op0Lines []byte
}

// coldSpecs returns op k's two grids: 16 ping scenarios over peering,
// UPF placement and fleet size, then a small slicing × AR grid.
func coldSpecs(seed uint64, op int) [2]sweep.GridSpec {
	return [2]sweep.GridSpec{
		{
			BaseSeed:     des.DeriveSeed(seed, fmt.Sprintf("sweep-cold-op-%d", op)),
			Replications: 2,
			LocalPeering: []bool{false, true},
			EdgeUPF:      []bool{false, true},
			MobileNodes:  []int{3, 6},
		},
		{
			BaseSeed:      des.DeriveSeed(seed, fmt.Sprintf("sweep-cold-small-op-%d", op)),
			Slicing:       []string{"latency", "load-balance"},
			ARDeployments: []string{"none", "5G-edge-upf"},
		},
	}
}

// timedStore passes a store through while timing each scenario's cold
// path in the executor: from its first read-through miss to the end of
// its write-through.
type timedStore struct {
	st     *store.Store
	tr     *tracer
	op     int64
	parent int32

	mu    sync.Mutex
	first map[string]time.Time
	lat   []time.Duration
}

func (s *timedStore) Get(id string) (*campaign.Result, bool) {
	s.mu.Lock()
	if _, seen := s.first[id]; !seen {
		s.first[id] = time.Now()
	}
	s.mu.Unlock()
	sp := s.tr.begin("store", "store.Get", s.op, s.parent)
	defer s.tr.end(sp)
	return s.st.Get(id)
}

func (s *timedStore) Put(id string, res *campaign.Result) error {
	sp := s.tr.begin("store", "store.Put", s.op, s.parent)
	err := s.st.Put(id, res)
	s.tr.end(sp)
	s.mu.Lock()
	s.lat = append(s.lat, time.Since(s.first[id]))
	s.mu.Unlock()
	return err
}

func (w *sweepCold) setup(e *env) error {
	// A warm-up sweep of the small grid into a throwaway store, so the
	// timed ops start with the runtime's heap and worker goroutines
	// grown.
	w.seed = e.seed
	spec := coldSpecs(e.seed, -1)[1]
	g, err := spec.Grid()
	if err != nil {
		return err
	}
	_, _, err = w.runGrids(e, []sweep.Grid{g}, -1, nil, nil)
	return err
}

// runGrids runs the grids as one op into one fresh store and returns
// the emitted runs (kept only when keep is set) and per-scenario cold
// latencies. Failures are counted on e.
func (w *sweepCold) runGrids(e *env, grids []sweep.Grid, op int, tr *tracer, keep *[]sweep.ScenarioRun) (int64, []time.Duration, error) {
	dir, err := os.MkdirTemp(e.tmp, "op-*")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, nil, err
	}
	opSpan := tr.begin("sweep", "sweep.RunEach", int64(op), 0)
	ts := &timedStore{st: st, tr: tr, op: int64(op), parent: opSpan, first: map[string]time.Time{}}
	cache := sweep.NewPersistentCache(ts)
	cache.SetRunner(func(cfg campaign.Config) (*campaign.Result, error) {
		sp := tr.begin("campaign", "campaign.Run", int64(op), opSpan)
		defer tr.end(sp)
		return campaign.Run(cfg)
	})
	var done int64
	for _, g := range grids {
		size, _ := g.Size()
		e.attempt(int64(size))
		emitted := 0
		res, err := sweep.RunEach(g, sweep.Options{Workers: e.nproc, Cache: cache}, func(r sweep.ScenarioRun) error {
			emitted++
			switch {
			case r.Result == nil || r.Result.TotalMeasurements == 0:
				e.fail("op %d: scenario %s has no result", op, r.ID)
			case r.Cached:
				e.fail("op %d: scenario %s hit a fresh cache", op, r.ID)
			case r.ID != sweep.ScenarioID(r.Config):
				e.fail("op %d: scenario %s has a wrong ID", op, r.ID)
			default:
				done++
				if keep != nil {
					*keep = append(*keep, r)
				}
			}
			return nil
		})
		if err != nil {
			for ; emitted < size; emitted++ {
				e.fail("op %d: %v", op, err)
			}
		} else if res.CacheHits != 0 || res.CacheMisses != size {
			e.fail("op %d: %d hits / %d misses on a fresh grid of %d", op, res.CacheHits, res.CacheMisses, size)
		}
	}
	tr.end(opSpan)
	if err := st.Close(); err != nil {
		e.fail("op %d: close store: %v", op, err)
	}
	return done, ts.lat, nil
}

// load runs ops until d has passed. Untraced, a host reference is taken
// before the first op and after each one, and the rate and latencies
// are scaled by the run's host factor (see hostref.go); a traced run
// skips the references and reports raw figures.
func (w *sweepCold) load(e *env, d time.Duration, tr *tracer) (*loadStats, error) {
	ls := &loadStats{tailP: 0.9, classes: map[string][]time.Duration{}, extra: map[string]float64{}}
	var refs []time.Duration
	takeRef := func() {
		if tr == nil {
			ref, alloc := hostRef(e.nproc)
			refs = append(refs, ref)
			ls.refAlloc += alloc
		}
	}
	start := time.Now()
	takeRef()
	var prevEnd time.Time
	for op := 0; time.Since(start) < d; op++ {
		specs := coldSpecs(e.seed, op)
		var grids []sweep.Grid
		for _, s := range specs {
			g, err := s.Grid()
			if err != nil {
				return nil, err
			}
			grids = append(grids, g)
		}
		var keep *[]sweep.ScenarioRun
		if op == 0 {
			keep = &w.op0
		}
		t0 := time.Now()
		if !prevEnd.IsZero() {
			ls.late = append(ls.late, t0.Sub(prevEnd))
		}
		done, lat, err := w.runGrids(e, grids, op, tr, keep)
		if err != nil {
			return nil, err
		}
		opEnd := time.Now()
		ls.wall += opEnd.Sub(t0)
		ls.classes["op"] = append(ls.classes["op"], opEnd.Sub(t0))
		ls.ops++
		ls.scenarios += done
		ls.rates = append(ls.rates, float64(done)/opEnd.Sub(t0).Seconds())
		ls.headline = append(ls.headline, lat...)
		takeRef()
		prevEnd = time.Now()
	}
	ls.classes["cold"] = ls.headline
	if tr == nil {
		f := hostFactor(refs)
		ls.extra["raw_scenarios_per_s"] = median(ls.rates)
		ls.extra["host_ref_ms"] = median(millis(refs))
		ls.extra["host_factor"] = f
		ls.rates = scaled(ls.rates, f)
		ls.headline = scaledLatencies(ls.headline, f)
	}
	return ls, nil
}

// verify re-runs one scenario of each kind from op 0 on this goroutine
// with campaign.Run and requires the swept record bytes.
func (w *sweepCold) verify(e *env) error {
	picked := map[string]bool{}
	for _, r := range w.op0 {
		line, err := recordLine(r)
		if err != nil {
			return err
		}
		w.op0Lines = append(w.op0Lines, line...)
		c := r.Config.Canonical()
		kind := fmt.Sprintf("nodes=%d slicing=%v ar=%v", c.MobileNodes, c.Slicing != nil, c.ARGame != nil)
		if picked[kind] {
			continue
		}
		picked[kind] = true
		want, err := rerun(r.Scenario)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, line) {
			e.fail("sweep_cold: scenario %s (%s) differs from a one-worker re-run", r.ID, kind)
		}
	}
	if len(picked) != 4 {
		e.fail("sweep_cold: op 0 covered %d scenario kinds, want 4", len(picked))
	}
	return nil
}

func (w *sweepCold) ladderInputs() ladderInputs {
	return ladderInputs{spec: coldSpecs(w.seed, 0)[0], runs: w.op0}
}

func (w *sweepCold) counters() counters { return counters{} }
func (w *sweepCold) digest() []byte     { return w.op0Lines }
func (w *sweepCold) close()             {}

// ---- serve_mixed ---------------------------------------------------------

// warmSpec is the 16-scenario warm set: 4 seeds × peering × UPF
// placement.
func warmSpec(seed uint64) sweep.GridSpec {
	spec := sweep.GridSpec{LocalPeering: []bool{false, true}, EdgeUPF: []bool{false, true}}
	for i := 0; i < 4; i++ {
		spec.Seeds = append(spec.Seeds, des.DeriveSeed(seed, fmt.Sprintf("warm-%d", i)))
	}
	return spec
}

// warmUp sends one stream per format and every query once to the
// server at url, checked.
func (ws *warmSet) warmUp(c *http.Client, url string) error {
	for _, accept := range []string{"", tlv.MediaType} {
		body, err := post(c, url+"/v1/sweep", ws.specJS, accept)
		if err != nil {
			return err
		}
		if accept != "" {
			err = ws.checkTLV(body)
		} else if !bytes.Equal(body, ws.stream) {
			err = fmt.Errorf("jsonl stream differs from the expected %d records", len(ws.gridRuns))
		}
		if err != nil {
			return err
		}
	}
	for _, run := range ws.runs {
		body, err := post(c, url+"/v1/scenario", ws.axes[run.ID], "")
		if err != nil {
			return err
		}
		if !bytes.Equal(body, ws.lines[run.ID]) {
			return fmt.Errorf("warm-up query %s returned other bytes", run.ID)
		}
	}
	return nil
}

const (
	// mixedSegments cuts the open-loop phase into segments with a host
	// reference between them.
	mixedSegments = 8

	warmRate = 200 // warm /v1/scenario queries per second
	coldRate = 3   // cold misses per second
	// verifiedCold is how many of the first cold misses are re-run and
	// compared byte for byte; at coldRate every run sends them.
	verifiedCold = 6
)

// serveMixed sends warm queries and cold misses on an open-loop
// schedule, one connection per class, to one warm disk-backed server.
type serveMixed struct {
	ws       *warmSet
	n        *node
	warmC    *http.Client
	coldC    *http.Client
	coldBody [verifiedCold][]byte
	coldLine [verifiedCold][]byte

	mu     sync.Mutex
	tr     *tracer
	inCold map[string]int32 // scenario ID -> open cold-request span
}

// coldScenario is the i-th never-seen scenario: a fresh seed over the
// warm set's peering and UPF axes.
func coldScenario(seed uint64, i int) (sweep.Scenario, []byte, error) {
	ax := sweep.Axes{
		Seed:         des.DeriveSeed(seed, fmt.Sprintf("cold-%d", i)),
		LocalPeering: i%2 == 1,
		EdgeUPF:      (i/2)%2 == 1,
	}
	sc, err := ax.Scenario()
	if err != nil {
		return sc, nil, err
	}
	body, err := json.Marshal(ax)
	return sc, body, err
}

// runner is the server's simulation hook: campaign.Run, traced as a
// child of the cold request that caused it.
func (w *serveMixed) runner(cfg campaign.Config) (*campaign.Result, error) {
	w.mu.Lock()
	tr, parent := w.tr, w.inCold[sweep.ScenarioID(cfg)]
	w.mu.Unlock()
	sp := tr.begin("campaign", "campaign.Run", 0, parent)
	defer tr.end(sp)
	return campaign.Run(cfg)
}

func (w *serveMixed) setup(e *env) error {
	var err error
	if w.ws, err = newWarmSet(warmSpec(e.seed), e.nproc); err != nil {
		return err
	}
	w.inCold = map[string]int32{}
	if w.n, err = newNode(e, serve.Options{SimWorkers: e.nproc, Runner: w.runner}); err != nil {
		return err
	}
	w.n.warm(w.ws)
	w.warmC = newClient(1)
	w.coldC = newClient(1)
	return w.ws.warmUp(w.warmC, w.n.ts.URL)
}

// segment is what one open-loop segment observed.
type segment struct {
	warm, cold  []time.Duration // answer latencies, from due time
	late        []time.Duration // generator lag
	wall        time.Duration   // first due time to last answer
	inSLO, sent int             // answers within the budget, arrivals sent
}

// load runs the phase as mixedSegments open-loop segments of equal
// length, each timed from its own first due time. Its scenario rate is
// the answers over the segments' time from the first due time to the
// last answer: near the offered rate while the server keeps up, lower as
// soon as a backlog makes the last answers late. Untraced, a host
// reference is taken before the first segment and after each one, while
// no request is open, and each segment's latencies are scaled by its
// own host factor (see hostref.go); the rate is not, as the schedule
// sets it.
//
// Client and server share the process, and while two cold misses
// simulate, the server's nproc workers hold every P: the generator then
// waits for Go's 10 ms preemption to hand off an arrival, and its lag
// p99 neared the 20 ms budget whenever the shared host ran slow. So the
// phase runs with one P more than nproc, which the operating system
// shares out; the server still simulates on nproc workers.
func (w *serveMixed) load(e *env, d time.Duration, tr *tracer) (*loadStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.nproc + 1))
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
	ls := &loadStats{tailP: 0.99, classes: map[string][]time.Duration{}, openLoop: true, extra: map[string]float64{}}
	var refs []time.Duration
	takeRef := func() {
		if tr == nil {
			ref, alloc := hostRef(e.nproc)
			refs = append(refs, ref)
			ls.refAlloc += alloc
		}
	}
	c0 := serverCounters(w.n)
	rng := e.rng("mixed-warm")
	var inSLO, sent int
	takeRef()
	for k := 0; k < mixedSegments; k++ {
		sg, err := w.segment(e, tr, rng, k, d/mixedSegments)
		if err != nil {
			return nil, err
		}
		takeRef()
		ls.wall += sg.wall
		ls.ops += int64(len(sg.warm) + len(sg.cold))
		ls.late = append(ls.late, sg.late...)
		ls.classes["warm"] = append(ls.classes["warm"], sg.warm...)
		ls.classes["cold"] = append(ls.classes["cold"], sg.cold...)
		lats := append(append([]time.Duration(nil), sg.warm...), sg.cold...)
		if tr == nil {
			lats = scaledLatencies(lats, segmentFactor(refs, k))
		}
		ls.headline = append(ls.headline, lats...)
		inSLO += sg.inSLO
		sent += sg.sent
	}
	ls.scenarios = ls.ops
	// Every answered cold query is one simulation, and nothing sheds.
	if c := c0.diff(serverCounters(w.n)); c.Misses != int64(len(ls.classes["cold"])) || c.Shed != 0 {
		e.fail("serve_mixed: server simulated %d and shed %d for %d cold answers", c.Misses, c.Shed, len(ls.classes["cold"]))
	}
	ls.extra["slo_met_pct"] = 100 * float64(inSLO) / float64(sent)
	if tr == nil {
		ls.extra["host_ref_ms"] = median(millis(refs))
	}
	return ls, nil
}

// segment sends segment k's warm and cold arrivals, d long, and waits
// for every answer. Cold misses are numbered across segments, so each
// is a scenario never seen before.
func (w *serveMixed) segment(e *env, tr *tracer, rng *des.RNG, k int, d time.Duration) (*segment, error) {
	// The lead lets both generators start before their first due time.
	start := time.Now().Add(20 * time.Millisecond)
	warmS := schedule{start: start, period: time.Second / warmRate}
	coldS := schedule{start: start, offset: time.Second / (2 * coldRate), period: time.Second / coldRate}
	warmBase, coldBase := k*warmS.count(d), k*coldS.count(d)
	// Each channel holds every arrival of the segment, so a stalled
	// connection delays its requests (timed from their due times) but
	// never the generator.
	warmCh := make(chan arrival, warmS.count(d))
	coldCh := make(chan arrival, coldS.count(d))
	budget := time.Duration(budgetMs * float64(time.Millisecond))
	sg := &segment{sent: warmS.count(d) + coldS.count(d)}
	var (
		wg                   sync.WaitGroup
		warmLate, coldLate   []time.Duration
		warmLast, coldLast   time.Time
		warmInSLO, coldInSLO int
		coldErr              error
	)
	wg.Add(4)
	go func() { defer wg.Done(); warmLate = dispatch(warmS, d, warmCh, wallClock) }()
	go func() { defer wg.Done(); coldLate = dispatch(coldS, d, coldCh, wallClock) }()
	go func() {
		defer wg.Done()
		for a := range warmCh {
			run := w.ws.runs[rng.Intn(len(w.ws.runs))]
			e.attempt(1)
			sp := tr.begin("serve", "POST /v1/scenario warm", int64(warmBase+a.i), 0)
			body, err := post(w.warmC, w.n.ts.URL+"/v1/scenario", w.ws.axes[run.ID], "")
			tr.end(sp)
			warmLast = time.Now()
			if err == nil && !bytes.Equal(body, w.ws.lines[run.ID]) {
				err = fmt.Errorf("scenario %s: other bytes", run.ID)
			}
			if err != nil {
				e.fail("warm query: %v", err)
				continue
			}
			lat := warmLast.Sub(a.due)
			sg.warm = append(sg.warm, lat)
			if lat <= budget {
				warmInSLO++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for a := range coldCh {
			i := coldBase + a.i
			sc, reqBody, err := coldScenario(e.seed, i)
			if err != nil {
				coldErr = err
				continue
			}
			e.attempt(1)
			sp := tr.begin("serve", "POST /v1/scenario cold", int64(i), 0)
			w.mu.Lock()
			w.inCold[sc.ID] = sp
			w.mu.Unlock()
			body, err := post(w.coldC, w.n.ts.URL+"/v1/scenario", reqBody, "")
			tr.end(sp)
			w.mu.Lock()
			delete(w.inCold, sc.ID)
			w.mu.Unlock()
			coldLast = time.Now()
			if err == nil {
				err = checkColdBody(body, sc)
			}
			if err != nil {
				e.fail("cold query %d: %v", i, err)
				continue
			}
			if i < verifiedCold {
				w.coldBody[i] = body
			}
			lat := coldLast.Sub(a.due)
			sg.cold = append(sg.cold, lat)
			if lat <= budget {
				coldInSLO++
			}
		}
	}()
	wg.Wait()
	if coldErr != nil {
		return nil, coldErr
	}
	last := warmLast
	if coldLast.After(last) {
		last = coldLast
	}
	sg.wall = last.Sub(start)
	sg.late = append(warmLate, coldLate...)
	sg.inSLO = warmInSLO + coldInSLO
	return sg, nil
}

// checkColdBody checks a cold answer it cannot compare byte for byte
// without re-simulating: one record for the asked scenario.
func checkColdBody(body []byte, sc sweep.Scenario) error {
	var rec sweep.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	if rec.Scenario != sc.ID || rec.Measurements == 0 || len(rec.Cells) == 0 {
		return fmt.Errorf("record for %s is not the asked scenario's (%s, %d measurements)", sc.ID, rec.Scenario, rec.Measurements)
	}
	return nil
}

// verify re-runs the first cold misses with campaign.Run on this
// goroutine and requires the served bytes.
func (w *serveMixed) verify(e *env) error {
	for i := 0; i < verifiedCold; i++ {
		sc, _, err := coldScenario(e.seed, i)
		if err != nil {
			return err
		}
		if w.coldLine[i], err = rerun(sc); err != nil {
			return err
		}
		if w.coldBody[i] == nil {
			continue // the failed request is already counted
		}
		if !bytes.Equal(w.coldBody[i], w.coldLine[i]) {
			e.fail("serve_mixed: cold scenario %d (%s) differs from a one-worker re-run", i, sc.ID)
		}
	}
	return nil
}

func (w *serveMixed) ladderInputs() ladderInputs { return w.ws.inputs() }
func (w *serveMixed) counters() counters         { return serverCounters(w.n) }
func (w *serveMixed) close()                     { w.n.close() }

func (w *serveMixed) digest() []byte {
	out := append([]byte(nil), w.ws.stream...)
	for _, l := range w.coldLine {
		out = append(out, l...)
	}
	return out
}
