package routing

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/topo"
)

// samePath reports whether two paths walk the same node and link
// pointers.
func samePath(a, b Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// checkMemo fails t unless the memoized Route agrees with a fresh route
// for src -> dst.
func checkMemo(t *testing.T, pr *PolicyRouter, src, dst *topo.Node, ctx string) {
	t.Helper()
	got, gerr := pr.Route(src, dst)
	want, werr := pr.route(src, dst)
	if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrNoRoute) != errors.Is(werr, ErrNoRoute) {
		t.Fatalf("%s: %s -> %s: memo error %v, fresh error %v", ctx, src.Name, dst.Name, gerr, werr)
	}
	if !samePath(got, want) {
		t.Fatalf("%s: %s -> %s: memo %v, fresh %v", ctx, src.Name, dst.Name, got, want)
	}
}

// TestMemoMatchesFreshRoute interleaves Route calls with every change
// that moves the network epoch (Fail, Restore, AddNode, Connect) on
// random tiered topologies, and after each step checks the memoized
// Route against a fresh computation on a sample of pairs, both
// previously queried and new.
func TestMemoMatchesFreshRoute(t *testing.T) {
	rng := des.NewRNG(2024)
	for trial := 0; trial < 20; trial++ {
		nw, nodes := genTieredTopology(rng, 2, 3, 4)
		pr := NewPolicyRouter(nw)
		pick := func() *topo.Node { return nodes[rng.Intn(len(nodes))] }
		for step := 0; step < 200; step++ {
			links := nw.Links()
			var op string
			switch rng.Intn(8) {
			case 0:
				links[rng.Intn(len(links))].Fail()
				op = "fail"
			case 1:
				links[rng.Intn(len(links))].Restore()
				op = "restore"
			case 2:
				// A router inside an existing AS, unreachable until a
				// later Connect attaches it.
				at := pick()
				nodes = append(nodes, nw.AddNode(&topo.Node{
					Name: fmt.Sprintf("x%d", step), AS: at.AS, Pos: at.Pos,
					ProcDelay: 50 * time.Microsecond,
				}))
				op = "addnode"
			case 3:
				// An intra-AS link: attaches an added router or adds a
				// parallel path that may shorten intra-AS segments.
				a := pick()
				var peers []*topo.Node
				for _, n := range nodes {
					if n != a && n.AS == a.AS {
						peers = append(peers, n)
					}
				}
				op = "route"
				if len(peers) > 0 {
					nw.Connect(a, peers[rng.Intn(len(peers))], float64(1+rng.Intn(50)), topo.RelInternal, 100, 0.1)
					op = "connect"
				}
			default:
				op = "route"
			}
			for i := 0; i < 6; i++ {
				checkMemo(t, pr, pick(), pick(), fmt.Sprintf("trial %d step %d after %s", trial, step, op))
			}
		}
	}
}

// TestRouteAppendDoesNotAliasMemo: Route hands out the memo's own
// slices, capacity-clipped, so a caller's append copies instead of
// writing into storage the next caller sees.
func TestRouteAppendDoesNotAliasMemo(t *testing.T) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	first, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	a := append(first.Nodes, ce.ServiceUni)
	second, err := pr.Route(ce.AggKlu, ce.ProbeUni)
	if err != nil {
		t.Fatal(err)
	}
	b := append(second.Nodes, ce.WiredKlu)
	if a[len(a)-1] != ce.ServiceUni || b[len(b)-1] != ce.WiredKlu {
		t.Fatal("appends to two Route results share storage")
	}
	fresh, _ := pr.route(ce.AggKlu, ce.ProbeUni)
	if !samePath(second, fresh) {
		t.Fatalf("Route after an append = %v, want %v", second, fresh)
	}
}

// TestRouteMemoHitZeroAlloc: a repeated Route on an unchanged network
// is a map lookup and allocates nothing.
func TestRouteMemoHitZeroAlloc(t *testing.T) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkPolicyRoute measures one full policy-route computation (AS
// propagation plus per-AS shortest paths), bypassing the memo.
func BenchmarkPolicyRoute(b *testing.B) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.route(ce.UPFVienna, ce.ProbeUni); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotRouteMemoHit measures the Route call every campaign
// sample makes once its pair is memoized. CI parses the -benchmem
// output into BENCH_alloc.json and fails on allocs/op > 0.
func BenchmarkHotRouteMemoHit(b *testing.B) {
	ce := topo.BuildCentralEurope()
	pr := NewPolicyRouter(ce.Net)
	if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
			b.Fatal(err)
		}
	}
}
