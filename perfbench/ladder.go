package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/probe"
	"repro/internal/ran"
	"repro/internal/sweep"
	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
	"repro/internal/topo"
)

// ladderInputs are a workload's own scenarios for the per-layer probes:
// runs with results, the first of which form spec's grid in grid order.
type ladderInputs struct {
	spec sweep.GridSpec
	runs []sweep.ScenarioRun
}

func (ws *warmSet) inputs() ladderInputs { return ladderInputs{spec: ws.spec, runs: ws.runs} }

// probeTime is how long each repeated per-layer probe runs.
const probeTime = 40 * time.Millisecond

// profileCPU is how much CPU time the profiled campaign runs take at
// least: at the profiler's 100 Hz, about 300 samples, so a share is
// known to within a few percent.
const (
	profileCPU        = 3 * time.Second
	minProfileSamples = 100
)

// isDESLoop reports whether a frame is the DES event loop or its queue,
// not the RNG the package also holds.
func isDESLoop(frame string) bool {
	for _, p := range []string{"(*Simulator).", "(*eventQueue).", "eventQueue.", "(*Ticker).", "(*Event)."} {
		if strings.HasPrefix(frame, "repro/internal/des."+p) {
			return true
		}
	}
	return false
}

// cost is one probe's per-call time, CPU time and allocation.
type cost struct {
	perCall, cpuPerCall time.Duration
	allocs, kbytes      float64
}

// measure calls round until probeTime has passed; round returns how
// many layer calls it made. Allocation counts cover the whole process,
// so probes run only while the load is stopped.
func measure(round func() int) cost {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	t0, cpu0 := time.Now(), processCPU()
	for calls == 0 || time.Since(t0) < probeTime {
		calls += round()
	}
	el, cpu := time.Since(t0), processCPU()-cpu0
	runtime.ReadMemStats(&ms1)
	n := float64(calls)
	return cost{
		perCall:    el / time.Duration(calls),
		cpuPerCall: cpu / time.Duration(calls),
		allocs:     float64(ms1.Mallocs-ms0.Mallocs) / n,
		kbytes:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n,
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// simStack is the simulator stack campaign.Run builds for one config:
// topology, sector probes, user plane and measurement engine.
type simStack struct {
	ce     *topo.CentralEurope
	up     *corenet.UserPlane
	upf    *corenet.UPF
	probes []campaign.SectorProbe
	eng    *probe.Engine
	conds  []ran.Conditions
	prof   *ran.Profile
}

func newSimStack(cfg campaign.Config) (*simStack, error) {
	cfg = cfg.Canonical()
	grid := geo.NewKlagenfurtGrid()
	density := geo.NewKlagenfurtDensity(grid)
	ce := topo.BuildCentralEurope()
	if cfg.LocalPeering {
		ce.EnableLocalPeering()
	}
	cells := cfg.TargetCells
	if cfg.Slicing != nil {
		var err error
		if cells, err = campaign.SlicingCells(grid, density, *cfg.Slicing); err != nil {
			return nil, err
		}
	}
	probes, err := campaign.AddSectorProbes(ce, grid, cells)
	if err != nil {
		return nil, err
	}
	s := &simStack{ce: ce, up: corenet.NewUserPlane(ce), probes: probes, prof: cfg.Profile}
	s.upf = s.up.Central
	if cfg.EdgeUPF {
		s.upf = s.up.Edge
	}
	s.eng = probe.NewEngine(s.up, cfg.Profile)
	for _, c := range density.TraversalCells() {
		s.conds = append(s.conds, ran.Conditions{Load: density.LoadFactor(c), SiteKm: geo.NearestSiteKm(grid, c)})
	}
	return s, nil
}

// routePairs are the (src, dst) pairs a campaign routes, by kind: every
// mobile ping routes the backhaul (aggregation to UPF) and one breakout
// (UPF to a probe, the probes taken in turn); every wired ping routes
// one probe pair.
func (s *simStack) routePairs() (backhaul, breakout, wired [][2]*topo.Node) {
	backhaul = [][2]*topo.Node{{s.ce.AggKlu, s.upf.Host}}
	for i, a := range s.probes {
		breakout = append(breakout, [2]*topo.Node{s.upf.Host, a.Host})
		for j, b := range s.probes {
			if i != j {
				wired = append(wired, [2]*topo.Node{a.Host, b.Host})
			}
		}
	}
	return backhaul, breakout, wired
}

// ladderStack is a server and a proxy holding a workload's runs, for
// the serve and cluster handler probes.
type ladderStack struct {
	n  *node
	p  *cluster.Proxy
	ws *warmSet
}

func (l *ladderStack) close() {
	l.p.Close()
	l.n.close()
}

// handle serves one request in process and checks status and body.
func handle(h http.Handler, path string, body []byte, accept string, check func([]byte) error) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, rec.Code)
	}
	return check(rec.Body.Bytes())
}

// ladder times the public functions of every layer on the workload's
// own inputs, each probe a span under one root, and returns the
// per-layer metrics it measures. cnt receives the ladder server's and
// proxy's counter movement.
func ladder(e *env, in ladderInputs, tr *tracer, cnt *counters) (map[string]float64, error) {
	m := map[string]float64{}
	root := tr.begin("perfbench", "ladder", 0, 0)
	defer tr.end(root)
	step := func(layer, name string, fn func() error) error {
		sp := tr.begin(layer, name, 0, root)
		defer tr.end(sp)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var ping, ar *sweep.ScenarioRun
	for i := range in.runs {
		r := &in.runs[i]
		if r.Config.ARGame == nil && ping == nil {
			ping = r
		}
		if r.Config.ARGame != nil && ar == nil {
			ar = r
		}
	}
	if ping == nil {
		return nil, fmt.Errorf("ladder: no ping scenario among %d runs", len(in.runs))
	}
	arCfg := ping.Config
	if ar != nil {
		arCfg = ar.Config
	} else {
		arCfg.ARGame = &campaign.ARGameMode{Deployment: argame.DeployEdgeUPF}
	}

	s, err := newSimStack(ping.Config)
	if err != nil {
		return nil, err
	}
	cfg := ping.Config.Canonical()
	n := len(s.probes)
	wired := cfg.WiredRounds * n * (n - 1)

	// campaign: single-thread runs of the workload's first ping scenario
	// under a CPU profile, until the runs have taken profileCPU, then an
	// AR-mode run. The routing and DES shares are the profile's own, over
	// the samples with campaign.Run on the stack: routing, those with
	// PolicyRouter.Route on it; DES, those whose innermost repository
	// frame is the event loop or its queue (event handlers are campaign
	// closures, so the work they do is not counted as DES).
	sp := tr.begin("campaign", "campaign.Run", 0, root)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	var res *campaign.Result
	var runs, allocs, allocB []float64
	for cpu0 := processCPU(); len(runs) < 3 || processCPU()-cpu0 < profileCPU; {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		r, err := campaign.Run(ping.Config)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		runs = append(runs, float64(time.Since(t0))/1e6)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocB = append(allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		res = r
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(&buf)
	if err != nil {
		return nil, err
	}
	inCampaign := func(f string) bool { return f == "repro/internal/campaign.Run" }
	routeShare, samples := prof.share(inCampaign, func(st []string) bool {
		return hasFrame(st, func(f string) bool { return f == "repro/internal/routing.(*PolicyRouter).Route" })
	})
	desShare, _ := prof.share(inCampaign, func(st []string) bool { return isDESLoop(innermostRepo(st)) })
	fmt.Fprintf(os.Stderr, "cpu profile: %d samples in campaign.Run over %d runs\n", samples, len(runs))
	if samples < minProfileSamples {
		return nil, fmt.Errorf("cpu profile holds %d samples in campaign.Run, want at least %d", samples, minProfileSamples)
	}
	m["campaign.run_ms"] = median(runs)
	m["campaign.allocs_k"] = median(allocs) / 1e3
	m["campaign.alloc_mb"] = median(allocB) / (1 << 20)
	m["campaign.measurements"] = float64(res.TotalMeasurements)
	m["routing.share_pct"] = 100 * routeShare
	m["des.share_pct"] = 100 * desShare
	t0 := time.Now()
	if _, err := campaign.Run(arCfg); err != nil {
		return nil, err
	}
	m["campaign.ar_run_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(sp)

	// routing: each kind of pair the campaign routes, timed on its own
	// and weighed by how often the campaign routed it.
	mobile := float64(res.TotalMeasurements)
	calls := 2*mobile + float64(wired)
	var routeErr error
	route := func(pairs [][2]*topo.Node) cost {
		return measure(func() int {
			for _, p := range pairs {
				if _, e := s.up.Router.Route(p[0], p[1]); e != nil {
					routeErr = e
				}
			}
			return len(pairs)
		})
	}
	rs := tr.begin("routing", "PolicyRouter.Route", 0, root)
	backhaul, breakout, wiredPairs := s.routePairs()
	bh, bo, wp := route(backhaul), route(breakout), route(wiredPairs)
	tr.end(rs)
	if routeErr != nil {
		return nil, routeErr
	}
	m["routing.calls_per_scenario"] = calls
	m["routing.route_us"] = us(time.Duration((mobile*float64(bh.perCall+bo.perCall) + float64(wired)*float64(wp.perCall)) / calls))
	m["routing.route_allocs"] = (mobile*(bh.allocs+bo.allocs) + float64(wired)*wp.allocs) / calls

	// des: a simulator loaded with the campaign's event count, spread
	// uniformly over its virtual duration, with no-op handlers.
	rng := e.rng("ladder-des")
	at := make([]time.Duration, res.TotalMeasurements+wired)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(res.VirtualDuration))
	}
	ds := tr.begin("des", "Simulator.Run", 0, root)
	fired := 0
	var desErr error
	ev := measure(func() int {
		sim := des.NewSimulator(1)
		for _, t := range at {
			sim.ScheduleAt(t, func() { fired++ })
		}
		if e := sim.Run(); e != nil {
			desErr = e
		}
		return len(at)
	})
	tr.end(ds)
	if desErr != nil {
		return nil, desErr
	}
	m["des.events_per_scenario"] = float64(len(at))
	m["des.event_ns"] = ns(ev.perCall)

	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"corenet", "UserPlane.Establish", func() error {
			var err error
			c := measure(func() int {
				for _, p := range s.probes {
					if _, e := s.up.Establish(s.upf, p.Host); e != nil {
						err = e
					}
				}
				return n
			})
			m["corenet.establish_us"] = us(c.perCall)
			m["corenet.establish_allocs"] = c.allocs
			return err
		}},
		{"probe", "Engine.MobileRTT", func() error {
			rng := e.rng("ladder-probe")
			var err error
			c := measure(func() int {
				for i, p := range s.probes {
					if _, e := s.eng.MobileRTT(rng, s.conds[i%len(s.conds)], s.upf, p.Host); e != nil {
						err = e
					}
				}
				return n
			})
			m["probe.mobile_rtt_us"] = us(c.perCall)
			c = measure(func() int {
				for i := 1; i < n; i++ {
					if _, e := s.eng.WiredRTT(rng, s.probes[i-1].Host, s.probes[i].Host); e != nil {
						err = e
					}
				}
				return n - 1
			})
			m["probe.wired_rtt_us"] = us(c.perCall)
			return err
		}},
		{"ran", "Profile.SampleRTT", func() error {
			rng := e.rng("ladder-ran")
			c := measure(func() int {
				for _, cond := range s.conds {
					s.prof.SampleRTT(rng, cond)
				}
				return len(s.conds)
			})
			m["ran.sample_rtt_ns"] = ns(c.perCall)
			return nil
		}},
	}
	for _, st := range steps {
		if err := step(st.layer, st.name, st.fn); err != nil {
			return nil, err
		}
	}

	if err := step("sweep", "sweep", func() error { return ladderSweep(e, in, ping, m) }); err != nil {
		return nil, err
	}
	if err := step("store", "store", func() error { return ladderStore(e, in, m) }); err != nil {
		return nil, err
	}
	if err := step("tlv", "tlv", func() error { return ladderTLV(in, m) }); err != nil {
		return nil, err
	}
	ls, err := newLadderStack(e, in)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	c0 := ladderCounters(ls)
	if err := step("serve", "serve.Handler", func() error { return ladderServe(ls, m) }); err != nil {
		return nil, err
	}
	if err := step("cluster", "cluster", func() error { return ladderCluster(ls, m) }); err != nil {
		return nil, err
	}
	d := c0.diff(ladderCounters(ls))
	cnt.Hits += d.Hits
	cnt.Misses += d.Misses
	cnt.Shed += d.Shed
	cnt.ProxyHits += d.ProxyHits
	cnt.ProxyMisses += d.ProxyMisses
	return m, nil
}

// ladderSweep probes grid expansion, parallel efficiency, the cache's
// warm read and write-through put, and record encoding.
func ladderSweep(e *env, in ladderInputs, ping *sweep.ScenarioRun, m map[string]float64) error {
	g, err := in.spec.Grid()
	if err != nil {
		return err
	}
	size, _ := g.Size()
	c := measure(func() int {
		if _, e := g.Scenarios(); e != nil {
			err = e
		}
		return size
	})
	if err != nil {
		return err
	}
	m["sweep.expand_us"] = us(c.perCall)

	// Parallel efficiency: simulated time over wall × workers for a
	// cold sweep of 2×nproc seeds on the first ping scenario's axes.
	ax := sweep.AxesOf(ping.Config)
	par := sweep.GridSpec{LocalPeering: []bool{ax.LocalPeering}, EdgeUPF: []bool{ax.EdgeUPF}, MobileNodes: []int{ax.MobileNodes}}
	for i := 0; i < 2*e.nproc; i++ {
		par.Seeds = append(par.Seeds, des.DeriveSeed(e.seed, fmt.Sprintf("ladder-par-%d", i)))
	}
	pg, err := par.Grid()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var busy time.Duration
	cache := sweep.NewCache()
	cache.SetRunner(func(cfg campaign.Config) (*campaign.Result, error) {
		t0 := time.Now()
		r, err := campaign.Run(cfg)
		mu.Lock()
		busy += time.Since(t0)
		mu.Unlock()
		return r, err
	})
	t0 := time.Now()
	if _, err := sweep.Run(pg, sweep.Options{Workers: e.nproc, Cache: cache}); err != nil {
		return err
	}
	m["sweep.parallel_eff"] = float64(busy) / (float64(time.Since(t0)) * float64(e.nproc))

	st, dir, err := tempStore(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	pc := sweep.NewPersistentCache(st)
	c = measure(func() int {
		for _, r := range in.runs {
			pc.Put(r.ID, r.Result)
		}
		return len(in.runs)
	})
	m["sweep.cache_put_us"] = us(c.perCall)
	if n := pc.StoreErrors(); n != 0 {
		return fmt.Errorf("%d store errors on write-through", n)
	}
	c = measure(func() int {
		for _, r := range in.runs {
			if _, ok := pc.Get(r.ID); !ok {
				err = fmt.Errorf("warm cache misses %s", r.ID)
			}
		}
		return len(in.runs)
	})
	m["sweep.cache_get_us"] = us(c.perCall)
	m["sweep.cache_get_kb"] = c.kbytes
	m["sweep.cache_get_allocs"] = c.allocs
	var recBytes int
	c = measure(func() int {
		recBytes = 0
		for _, r := range in.runs {
			b, e := json.Marshal(sweep.RecordOf(r))
			if e != nil {
				err = e
			}
			recBytes += len(b) + 1
		}
		return len(in.runs)
	})
	m["sweep.record_json_us"] = us(c.perCall)
	m["sweep.record_json_bytes"] = float64(recBytes) / float64(len(in.runs))
	return err
}

func tempStore(e *env) (*store.Store, string, error) {
	dir, err := os.MkdirTemp(e.tmp, "ladder-*")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return st, dir, nil
}

// ladderStore probes Store.Put of full results, hits and misses.
func ladderStore(e *env, in ladderInputs, m map[string]float64) error {
	st, dir, err := tempStore(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	c := measure(func() int {
		for _, r := range in.runs {
			if e := st.Put(r.ID, r.Result); e != nil {
				err = e
			}
		}
		return len(in.runs)
	})
	if err != nil {
		return err
	}
	m["store.put_us"] = us(c.perCall)
	// Bytes appended per record: one fresh pass over the runs.
	st2, dir2, err := tempStore(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	defer st2.Close()
	for _, r := range in.runs {
		if err := st2.Put(r.ID, r.Result); err != nil {
			return err
		}
	}
	_, segs := st2.Manifest()
	var total int64
	for _, sg := range segs {
		total += sg.Size
	}
	m["store.put_bytes"] = float64(total) / float64(len(in.runs))
	c = measure(func() int {
		for _, r := range in.runs {
			if _, ok := st.Get(r.ID); !ok {
				err = fmt.Errorf("store misses %s", r.ID)
			}
		}
		return len(in.runs)
	})
	m["store.get_us"] = us(c.perCall)
	m["store.get_allocs"] = c.allocs
	absent := sweep.ScenarioID(campaign.Config{Seed: des.DeriveSeed(e.seed, "ladder-absent")})
	c = measure(func() int {
		if _, ok := st.Get(absent); ok {
			err = fmt.Errorf("store holds absent id %s", absent)
		}
		return 1
	})
	m["store.miss_us"] = us(c.perCall)
	return err
}

// ladderTLV probes the record codec on the workload's records.
func ladderTLV(in ladderInputs, m map[string]float64) error {
	recs := make([]sweep.Record, len(in.runs))
	frames := make([][]byte, len(in.runs))
	total := 0
	for i, r := range in.runs {
		recs[i] = sweep.RecordOf(r)
		frames[i] = tlv.AppendRecord(nil, &recs[i])
		total += len(frames[i])
	}
	var buf []byte
	c := measure(func() int {
		for i := range recs {
			buf = tlv.AppendRecord(buf[:0], &recs[i])
		}
		return len(recs)
	})
	m["tlv.append_record_ns"] = ns(c.perCall)
	m["tlv.record_bytes"] = float64(total) / float64(len(recs))
	var err error
	c = measure(func() int {
		for _, f := range frames {
			payload, _, e := tlv.ParseFrame(f)
			if e == nil {
				_, e = tlv.DecodeRecordPayload(payload)
			}
			if e != nil {
				err = e
			}
		}
		return len(frames)
	})
	m["tlv.decode_record_ns"] = ns(c.perCall)
	return err
}

func newLadderStack(e *env, in ladderInputs) (*ladderStack, error) {
	ws, err := warmSetOf(in.spec, in.runs)
	if err != nil {
		return nil, err
	}
	n, err := newNode(e, serve.Options{SimWorkers: e.nproc})
	if err != nil {
		return nil, err
	}
	n.warm(ws)
	p, err := cluster.NewProxy(cluster.Options{Writer: n.ts.URL, HealthInterval: -1})
	if err != nil {
		n.close()
		return nil, err
	}
	return &ladderStack{n: n, p: p, ws: ws}, nil
}

func ladderCounters(l *ladderStack) counters {
	c := serverCounters(l.n)
	if pc, err := proxyCounters(l.p); err == nil {
		c.ProxyHits, c.ProxyMisses = pc.ProxyHits, pc.ProxyMisses
	}
	return c
}

// timeEach times every call of fn separately, over the runs, rounds
// times, and returns the median.
func timeEach(rounds int, runs []sweep.ScenarioRun, fn func(r sweep.ScenarioRun) error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < rounds; i++ {
		for _, r := range runs {
			t0 := time.Now()
			if err := fn(r); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
	}
	return time.Duration(median(ds)), nil
}

// ladderServe probes the server's handlers in process, warm, and the
// same queries over loopback HTTP for the transport's share.
func ladderServe(l *ladderStack, m map[string]float64) error {
	h := l.n.srv.Handler()
	query := func(h http.Handler) func(r sweep.ScenarioRun) error {
		return func(r sweep.ScenarioRun) error {
			return handle(h, "/v1/scenario", l.ws.axes[r.ID], "", func(b []byte) error {
				if !bytes.Equal(b, l.ws.lines[r.ID]) {
					return fmt.Errorf("scenario %s: other bytes", r.ID)
				}
				return nil
			})
		}
	}
	handler, err := timeEach(20, l.ws.runs, query(h))
	if err != nil {
		return err
	}
	m["serve.scenario_handler_us"] = us(handler)
	client := newClient(1)
	defer client.CloseIdleConnections()
	wire, err := timeEach(20, l.ws.runs, func(r sweep.ScenarioRun) error {
		b, err := post(client, l.n.ts.URL+"/v1/scenario", l.ws.axes[r.ID], "")
		if err == nil && !bytes.Equal(b, l.ws.lines[r.ID]) {
			err = fmt.Errorf("scenario %s: other bytes", r.ID)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["serve.transport_us"] = us(wire - handler)
	for _, f := range []struct {
		name, accept string
		check        func([]byte) error
	}{
		{"serve.stream_jsonl_us", "", func(b []byte) error {
			if !bytes.Equal(b, l.ws.stream) {
				return fmt.Errorf("jsonl stream: other bytes")
			}
			return nil
		}},
		{"serve.stream_tlv_us", tlv.MediaType, l.ws.checkTLV},
	} {
		d, err := timeEach(20, l.ws.gridRuns[:1], func(sweep.ScenarioRun) error {
			return handle(h, "/v1/sweep", l.ws.specJS, f.accept, f.check)
		})
		if err != nil {
			return err
		}
		m[f.name] = us(d)
	}
	return nil
}

// ladderCluster probes ring ordering and the proxy's handlers.
func ladderCluster(l *ladderStack, m map[string]float64) error {
	ring, err := cluster.NewRing([]string{"http://replica-a.invalid", "http://replica-b.invalid"}, 0)
	if err != nil {
		return err
	}
	keys := make([]string, len(l.ws.runs))
	for i, r := range l.ws.runs {
		keys[i] = store.ShardOf(r.ID)
	}
	c := measure(func() int {
		for _, k := range keys {
			ring.Order(k)
		}
		return len(keys)
	})
	m["cluster.ring_order_ns"] = ns(c.perCall)
	h := l.p.Handler()
	d, err := timeEach(20, l.ws.runs, func(r sweep.ScenarioRun) error {
		return handle(h, "/v1/scenario", l.ws.axes[r.ID], "", func(b []byte) error {
			if !bytes.Equal(b, l.ws.lines[r.ID]) {
				return fmt.Errorf("proxied scenario %s: other bytes", r.ID)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	m["cluster.proxy_scenario_us"] = us(d)
	d, err = timeEach(20, l.ws.gridRuns[:1], func(sweep.ScenarioRun) error {
		return handle(h, "/v1/sweep", l.ws.specJS, "", func(b []byte) error {
			if !bytes.Equal(b, l.ws.stream) {
				return fmt.Errorf("proxied jsonl stream: other bytes")
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	m["cluster.fanout_stream_us"] = us(d)
	return nil
}

// ratio returns a/(a+b), or 0 when both are zero.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
