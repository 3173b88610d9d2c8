package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/tlv"
)

// budgetMs is the paper-grounded edge-AI latency budget (20 ms).
var budgetMs = float64(argame.Deadline) / float64(time.Millisecond)

// recordLine is the JSONL bytes a server must send for one run: the
// sweep.RecordOf JSON plus the encoder's newline.
func recordLine(run sweep.ScenarioRun) ([]byte, error) {
	b, err := json.Marshal(sweep.RecordOf(run))
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", run.ID, err)
	}
	return append(b, '\n'), nil
}

// warmSet is a grid the benchmark simulated itself, with the bytes every
// server must answer for it.
type warmSet struct {
	spec     sweep.GridSpec
	specJS   []byte
	runs     []sweep.ScenarioRun // every answerable run
	gridRuns []sweep.ScenarioRun // spec's grid, in grid order
	lines    map[string][]byte   // scenario ID -> record line
	axes     map[string][]byte   // scenario ID -> /v1/scenario body
	stream   []byte              // the whole grid as JSONL
}

// newWarmSet simulates spec's grid with nproc workers, no cache.
func newWarmSet(spec sweep.GridSpec, nproc int) (*warmSet, error) {
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(g, sweep.Options{Workers: nproc})
	if err != nil {
		return nil, err
	}
	return warmSetOf(spec, res.Scenarios)
}

// warmSetOf derives the expected bytes of runs whose first scenarios
// are spec's grid, in grid order.
func warmSetOf(spec sweep.GridSpec, runs []sweep.ScenarioRun) (*warmSet, error) {
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	size, err := g.Size()
	if err != nil {
		return nil, err
	}
	if size > len(runs) {
		return nil, fmt.Errorf("grid of %d scenarios over %d runs", size, len(runs))
	}
	ws := &warmSet{spec: spec, runs: runs, lines: map[string][]byte{}, axes: map[string][]byte{}}
	if ws.specJS, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	for i, run := range runs {
		line, err := recordLine(run)
		if err != nil {
			return nil, err
		}
		ws.lines[run.ID] = line
		if i < size {
			ws.stream = append(ws.stream, line...)
		}
		if ws.axes[run.ID], err = json.Marshal(sweep.AxesOf(run.Config)); err != nil {
			return nil, err
		}
	}
	ws.gridRuns = runs[:size]
	return ws, nil
}

// checkTLV decodes a TLV sweep stream with tlv.StreamReader and compares
// every record's JSON with the expected line, in grid order.
func (ws *warmSet) checkTLV(body []byte) error {
	sr := tlv.NewStreamReader(bytes.NewReader(body))
	for i, run := range ws.gridRuns {
		rec, err := sr.NextRecord()
		if err != nil {
			return fmt.Errorf("tlv record %d: %w", i, err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(append(b, '\n'), ws.lines[run.ID]) {
			return fmt.Errorf("tlv record %d (%s) differs from the expected record", i, run.ID)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		return fmt.Errorf("tlv stream has trailing data (%v)", err)
	}
	return nil
}

// node is one serve.Server on a loopback httptest listener.
type node struct {
	srv *serve.Server
	ts  *httptest.Server
	dir string
}

func newNode(e *env, opts serve.Options) (*node, error) {
	dir, err := os.MkdirTemp(e.tmp, "store-*")
	if err != nil {
		return nil, err
	}
	opts.CacheDir = dir
	srv, err := serve.New(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &node{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (n *node) close() {
	if n == nil {
		return
	}
	n.ts.Close()
	n.srv.Close()
	os.RemoveAll(n.dir)
}

// warm puts the benchmark's own results into the server's cache, which
// writes them through to its store: the state a server is in after it
// simulated them itself.
func (n *node) warm(ws *warmSet) {
	for _, run := range ws.runs {
		n.srv.Cache().Put(run.ID, run.Result)
	}
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one POST and returns the whole body.
func post(c *http.Client, url string, body []byte, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, nil
}

// counters are server and proxy counter snapshots; diff them across a
// phase.
type counters struct {
	Hits, Misses, Shed     int64
	ProxyHits, ProxyMisses int64
}

func (a counters) diff(b counters) counters {
	return counters{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Shed: b.Shed - a.Shed,
		ProxyHits: b.ProxyHits - a.ProxyHits, ProxyMisses: b.ProxyMisses - a.ProxyMisses,
	}
}

// serverCounters sums the cache and shed counters of the servers.
func serverCounters(nodes ...*node) counters {
	var c counters
	for _, n := range nodes {
		st := n.srv.StatsSnapshot()
		c.Hits += st.Cache.Hits
		c.Misses += st.Cache.Misses
		c.Shed += st.Sim.Shed + st.Grid.Shed
	}
	return c
}

// proxyCounters reads the proxy's response-cache counters from /statsz.
func proxyCounters(p *cluster.Proxy) (counters, error) {
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var st cluster.ProxyStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return counters{}, fmt.Errorf("proxy statsz: %w", err)
	}
	return counters{ProxyHits: st.Cache.Hits, ProxyMisses: st.Cache.Misses}, nil
}

// rerun simulates one scenario again with campaign.Run on this
// goroutine and returns its record line: the reference a served or
// swept result must match.
func rerun(sc sweep.Scenario) ([]byte, error) {
	res, err := campaign.Run(sc.Config)
	if err != nil {
		return nil, err
	}
	return recordLine(sweep.ScenarioRun{Scenario: sc, Result: res})
}
