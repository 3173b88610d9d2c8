package sweep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/argame"
	"repro/internal/golden"
	"repro/internal/ran"
	"repro/internal/slicing"
)

// simGoldenGrids is a compact set of grids that together move every
// axis off its default at least once: profile, local peering, edge UPF
// (with and without peering), fleet size, target cells, wired rounds,
// slicing and AR deployment.
var simGoldenGrids = []Grid{
	{Seeds: []uint64{11}},
	{Seeds: []uint64{12}, Profiles: []*ran.Profile{ran.Profile6G}, LocalPeering: []bool{true}},
	{Seeds: []uint64{13}, LocalPeering: []bool{false, true}, EdgeUPF: []bool{true}},
	{Seeds: []uint64{14}, MobileNodes: []int{2}, TargetCellSets: [][]string{{"B2", "E2", "C4"}}, WiredRounds: []int{2}},
	{Seeds: []uint64{15}, SlicingStrategies: []slicing.Strategy{slicing.StrategyLatency}},
	{Seeds: []uint64{16}, ARGameDeployments: []argame.Deployment{argame.DeployBaseline, argame.DeployEdgeUPF}},
}

// TestSimulationOutputGolden pins the simulator's output bytes, not just
// scenario IDs: every scenario is simulated afresh (no cache) and the
// sha256 of its JSONL record is compared with the checked-in digest, one
// line per scenario so a mismatch names the scenario that moved.
func TestSimulationOutputGolden(t *testing.T) {
	gt := reflect.TypeOf(Grid{})
	for i := 0; i < gt.NumField(); i++ {
		if gt.Field(i).Type.Kind() != reflect.Slice {
			continue
		}
		exercised := false
		for _, g := range simGoldenGrids {
			exercised = exercised || reflect.ValueOf(g).Field(i).Len() > 0
		}
		if !exercised {
			t.Fatalf("Grid axis %s is not exercised by simGoldenGrids", gt.Field(i).Name)
		}
	}

	var b strings.Builder
	for _, g := range simGoldenGrids {
		res, err := Run(g, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.ExportJSONL()
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(out, []byte("\n"))
		if len(lines) != len(res.Scenarios)+1 {
			t.Fatalf("%d JSONL lines for %d scenarios", len(lines)-1, len(res.Scenarios))
		}
		for i, run := range res.Scenarios {
			if run.Cached {
				t.Fatalf("scenario %s served from a cache; the golden must simulate", run.ID)
			}
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(lines[i]), run.ID)
		}
	}
	golden.Check(t, "testdata/simgolden.sha256", []byte(b.String()))
}
