package routing

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/topo"
)

// TestRouteTableGolden pins the policy route between every pair of
// endpoints of the reference topology, with and without local peering:
// the hop names and the one-way delay in nanoseconds. Endpoints are the
// non-router nodes plus the mobile aggregation site, the source of every
// session's backhaul leg. The KLA-IX node has no links (the peering
// session runs directly between its members), so its rows pin the
// no-route error too.
func TestRouteTableGolden(t *testing.T) {
	var b strings.Builder
	for _, peered := range []bool{false, true} {
		ce := topo.BuildCentralEurope()
		if peered {
			ce.EnableLocalPeering()
		}
		pr := NewPolicyRouter(ce.Net)
		var ends []*topo.Node
		for _, n := range ce.Net.Nodes() {
			if n.Kind != topo.KindRouter || n == ce.AggKlu {
				ends = append(ends, n)
			}
		}
		fmt.Fprintf(&b, "# local peering %v\n", peered)
		for _, src := range ends {
			for _, dst := range ends {
				if src == dst {
					continue
				}
				p, err := pr.Route(src, dst)
				if err != nil {
					fmt.Fprintf(&b, "%s -> %s: %v\n", src.Name, dst.Name, err)
					continue
				}
				fmt.Fprintf(&b, "%dns %s\n", p.OneWayDelay().Nanoseconds(), p)
			}
		}
	}
	golden.Check(t, "testdata/routetable.golden", []byte(b.String()))
}
