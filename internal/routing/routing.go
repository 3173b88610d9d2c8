// Package routing computes paths over the wired topology. It provides
// two routing regimes:
//
//   - Policy routing: a Gao-Rexford (valley-free) BGP abstraction with the
//     standard preference order customer > peer > provider and
//     shortest-AS-path tie-breaking. This regime reproduces the inflated
//     routes the paper measures (Table I / Figure 4).
//   - Shortest-delay routing: plain Dijkstra over link delays, the
//     counterfactual a perfectly-peered infrastructure would achieve
//     (Section V-A).
//
// Both return a Path whose hop list, kilometres and delay can be compared
// directly, which is how the path-stretch numbers in the experiments are
// produced.
package routing

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/topo"
)

// Path is an ordered walk through the wired graph.
type Path struct {
	Nodes []*topo.Node
	Links []*topo.Link // len(Links) == len(Nodes)-1
}

// Valid reports whether the path is structurally consistent.
func (p Path) Valid() bool {
	if len(p.Nodes) == 0 || len(p.Links) != len(p.Nodes)-1 {
		return false
	}
	for i, l := range p.Links {
		if !((l.A == p.Nodes[i] && l.B == p.Nodes[i+1]) ||
			(l.B == p.Nodes[i] && l.A == p.Nodes[i+1])) {
			return false
		}
	}
	return true
}

// Hops returns the number of forwarding hops (nodes after the source).
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// DistKm returns the summed link distance of the path.
func (p Path) DistKm() float64 {
	var km float64
	for _, l := range p.Links {
		km += l.DistKm
	}
	return km
}

// GreatCircleKm returns the direct distance between the endpoints.
func (p Path) GreatCircleKm() float64 {
	if len(p.Nodes) < 2 {
		return 0
	}
	return geo.DistanceKm(p.Nodes[0].Pos, p.Nodes[len(p.Nodes)-1].Pos)
}

// Stretch returns path kilometres over great-circle kilometres; 1.0 is a
// geographically optimal route. Returns +Inf for collocated endpoints
// joined by a non-zero path.
func (p Path) Stretch() float64 {
	gc := p.GreatCircleKm()
	d := p.DistKm()
	if gc < 1 {
		gc = 1 // collocated endpoints: compare against 1 km floor
	}
	return d / gc
}

// OneWayDelay returns the expected one-way delay: propagation plus
// queueing on every link plus processing at every node after the source.
// An empty or single-node path has zero delay.
func (p Path) OneWayDelay() time.Duration {
	if len(p.Nodes) == 0 {
		return 0
	}
	var d time.Duration
	for _, l := range p.Links {
		d += l.Delay()
	}
	for _, n := range p.Nodes[1:] {
		d += n.ProcDelay
	}
	return d
}

// RTT returns the expected round-trip delay (symmetric routing).
func (p Path) RTT() time.Duration { return 2 * p.OneWayDelay() }

// Cities returns the deduplicated city sequence of the path, the
// narrative form used by Figure 4 ("Vienna, Prague, Bucharest, Vienna").
func (p Path) Cities() []string {
	var out []string
	for _, n := range p.Nodes {
		if n.City == "" {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != n.City {
			out = append(out, n.City)
		}
	}
	return out
}

// ASPath returns the AS-level sequence of the path.
func (p Path) ASPath() []*topo.AS {
	var out []*topo.AS
	for _, n := range p.Nodes {
		if n.AS == nil {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != n.AS {
			out = append(out, n.AS)
		}
	}
	return out
}

func (p Path) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(n.Name)
	}
	return b.String()
}

// ErrNoRoute is returned when no route satisfies the regime's constraints.
var ErrNoRoute = errors.New("routing: no route")

// --- Shortest-delay routing (Dijkstra) ----------------------------------

type pqItem struct {
	node  *topo.Node
	dist  time.Duration
	index int
}

type pq []*pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *pq) Push(x any)        { it := x.(*pqItem); it.index = len(*q); *q = append(*q, it) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ShortestDelay returns the minimum-delay path between src and dst,
// ignoring AS policy. Cost is link delay plus downstream node processing.
func ShortestDelay(nw *topo.Network, src, dst *topo.Node) (Path, error) {
	if src == dst {
		return Path{Nodes: []*topo.Node{src}}, nil
	}
	dist := map[int]time.Duration{src.ID: 0}
	prevLink := map[int]*topo.Link{}
	q := &pq{}
	heap.Push(q, &pqItem{node: src, dist: 0})
	settled := map[int]bool{}
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
		if settled[it.node.ID] {
			continue
		}
		settled[it.node.ID] = true
		if it.node == dst {
			break
		}
		for _, l := range nw.LinksOf(it.node) {
			if !l.Up() {
				continue
			}
			next := l.Other(it.node)
			if settled[next.ID] {
				continue
			}
			nd := it.dist + l.Delay() + next.ProcDelay
			if cur, ok := dist[next.ID]; !ok || nd < cur {
				dist[next.ID] = nd
				prevLink[next.ID] = l
				heap.Push(q, &pqItem{node: next, dist: nd})
			}
		}
	}
	if !settled[dst.ID] {
		return Path{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src.Name, dst.Name)
	}
	return reconstruct(src, dst, prevLink), nil
}

func reconstruct(src, dst *topo.Node, prevLink map[int]*topo.Link) Path {
	var nodes []*topo.Node
	var links []*topo.Link
	for at := dst; ; {
		nodes = append(nodes, at)
		if at == src {
			break
		}
		l := prevLink[at.ID]
		links = append(links, l)
		at = l.Other(at)
	}
	// Reverse into src -> dst order.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return Path{Nodes: nodes, Links: links}
}

// --- Policy (valley-free BGP) routing ------------------------------------

// routeClass orders route preference: customer-learned routes beat
// peer-learned ones beat provider-learned ones (Gao-Rexford).
type routeClass int

const (
	classNone routeClass = iota
	classProvider
	classPeer
	classCustomer
	classSelf
)

// asRoute is the chosen route of one AS towards the destination AS.
type asRoute struct {
	class  routeClass
	length int      // AS-path length
	next   *topo.AS // next AS towards the destination
}

// PolicyRouter computes valley-free AS-level routes and expands them to
// router-level paths over the wired graph.
//
// Route memoizes its results per (src, dst) node pair. The memo is
// dropped whenever the network's epoch (topo.Network.Epoch) moves, so
// AddNode, Connect, Link.Fail and Link.Restore are seen by the next
// Route. Link.DistKm, Link.Util and Node.ProcDelay are not tracked and
// must not change once routes have been computed. A router is not safe
// for concurrent use.
type PolicyRouter struct {
	nw *topo.Network
	// asAdj[asn] lists inter-AS adjacencies with their relationship as
	// read from asn's side, and the concrete border links implementing
	// each adjacency.
	asAdj map[int]map[int]*asAdjacency
	// memo holds Route results keyed by (src.ID, dst.ID), computed at
	// network epoch memoEpoch.
	memo      map[[2]int]memoRoute
	memoEpoch uint64
}

type memoRoute struct {
	path Path
	err  error
}

type asAdjacency struct {
	rel   topo.Rel
	links []*topo.Link
}

// usable reports whether at least one border link of the adjacency is in
// service; failed adjacencies neither propagate nor carry routes.
func (a *asAdjacency) usable() bool {
	for _, l := range a.links {
		if l.Up() {
			return true
		}
	}
	return false
}

// NewPolicyRouter indexes the network's AS-level structure.
func NewPolicyRouter(nw *topo.Network) *PolicyRouter {
	pr := &PolicyRouter{
		nw:        nw,
		asAdj:     make(map[int]map[int]*asAdjacency),
		memo:      make(map[[2]int]memoRoute),
		memoEpoch: nw.Epoch(),
	}
	for _, l := range nw.Links() {
		if l.Rel == topo.RelInternal {
			continue
		}
		pr.addAdj(l.A.AS.ASN, l.B.AS.ASN, l.RelFrom(l.A), l)
		pr.addAdj(l.B.AS.ASN, l.A.AS.ASN, l.RelFrom(l.B), l)
	}
	return pr
}

func (pr *PolicyRouter) addAdj(from, to int, rel topo.Rel, l *topo.Link) {
	m := pr.asAdj[from]
	if m == nil {
		m = make(map[int]*asAdjacency)
		pr.asAdj[from] = m
	}
	adj := m[to]
	if adj == nil {
		adj = &asAdjacency{rel: rel}
		m[to] = adj
	}
	if adj.rel != rel {
		panic(fmt.Sprintf("routing: inconsistent relationship between AS%d and AS%d", from, to))
	}
	adj.links = append(adj.links, l)
}

// Routes computes every AS's best route towards dstAS using the standard
// three-phase valley-free propagation:
//  1. customer routes propagate upward from the destination through
//     provider links (these may later be exported to anyone);
//  2. peer routes cross a single peering edge (export only downward);
//  3. provider routes propagate downward (export only downward).
func (pr *PolicyRouter) Routes(dstAS *topo.AS) map[int]asRoute {
	routes := map[int]asRoute{dstAS.ASN: {class: classSelf, length: 0}}

	// Phase 1: propagate through the customer->provider hierarchy (BFS
	// from the destination along "I am a customer of X" edges). Routes
	// learned this way are customer routes at the receiving AS.
	type qe struct {
		asn    int
		length int
	}
	queue := []qe{{dstAS.ASN, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nbr, adj := range pr.asAdj[cur.asn] {
			// cur exports to nbr when nbr is cur's provider.
			if adj.rel != topo.RelCustomer || !adj.usable() {
				continue
			}
			cand := asRoute{class: classCustomer, length: cur.length + 1, next: pr.asOf(cur.asn)}
			if better(cand, routes[nbr]) {
				routes[nbr] = cand
				queue = append(queue, qe{nbr, cand.length})
			}
		}
	}

	// Phase 2: one peering edge. Any AS holding a customer (or self)
	// route exports it to its peers.
	type peerCand struct {
		asn   int
		route asRoute
	}
	var peerCands []peerCand
	for asn, r := range routes {
		if r.class != classCustomer && r.class != classSelf {
			continue
		}
		for nbr, adj := range pr.asAdj[asn] {
			if adj.rel != topo.RelPeer || !adj.usable() {
				continue
			}
			cand := asRoute{class: classPeer, length: r.length + 1, next: pr.asOf(asn)}
			if better(cand, routes[nbr]) {
				peerCands = append(peerCands, peerCand{nbr, cand})
			}
		}
	}
	sort.Slice(peerCands, func(i, j int) bool { // determinism
		if peerCands[i].asn != peerCands[j].asn {
			return peerCands[i].asn < peerCands[j].asn
		}
		return peerCands[i].route.length < peerCands[j].route.length
	})
	for _, pc := range peerCands {
		if better(pc.route, routes[pc.asn]) {
			routes[pc.asn] = pc.route
		}
	}

	// Phase 3: provider routes propagate downward: an AS with any route
	// exports it to its customers. Iterate to fixpoint (graph is small).
	for changed := true; changed; {
		changed = false
		asns := make([]int, 0, len(routes))
		for asn := range routes {
			asns = append(asns, asn)
		}
		sort.Ints(asns) // determinism
		for _, asn := range asns {
			r := routes[asn]
			for nbr, adj := range pr.asAdj[asn] {
				// asn exports to nbr when nbr is asn's customer.
				if adj.rel != topo.RelProvider || !adj.usable() {
					continue
				}
				cand := asRoute{class: classProvider, length: r.length + 1, next: pr.asOf(asn)}
				if better(cand, routes[nbr]) {
					routes[nbr] = cand
					changed = true
				}
			}
		}
	}
	return routes
}

func (pr *PolicyRouter) asOf(asn int) *topo.AS { return pr.nw.AS(asn) }

// better implements BGP-style decision: higher class wins, then shorter
// AS path, then (for determinism) lower next-hop ASN.
func better(cand, cur asRoute) bool {
	if cand.class != cur.class {
		return cand.class > cur.class
	}
	if cand.length != cur.length {
		return cand.length < cur.length
	}
	if cand.next != nil && cur.next != nil {
		return cand.next.ASN < cur.next.ASN
	}
	return false
}

// ASPath returns the AS-level valley-free path from srcAS to dstAS.
func (pr *PolicyRouter) ASPath(srcAS, dstAS *topo.AS) ([]*topo.AS, error) {
	routes := pr.Routes(dstAS)
	var path []*topo.AS
	cur := srcAS
	for {
		path = append(path, cur)
		if cur == dstAS {
			return path, nil
		}
		r, ok := routes[cur.ASN]
		if !ok || r.class == classNone || r.next == nil {
			return nil, fmt.Errorf("%w: no policy route %v -> %v", ErrNoRoute, srcAS, dstAS)
		}
		if len(path) > 64 {
			return nil, fmt.Errorf("routing: AS path loop from %v to %v", srcAS, dstAS)
		}
		cur = r.next
	}
}

// Route expands the valley-free AS path between two hosts into a
// router-level path: inside each AS it runs shortest-delay routing from
// the ingress router to the chosen egress border router; across ASes it
// picks the border link minimizing (distance to egress + link delay),
// a deterministic cold-potato approximation.
//
// Results are memoized until the network's epoch moves. The returned
// slices are shared with the memo: appending to them is safe (their
// capacity is clipped), writing their elements is not.
func (pr *PolicyRouter) Route(src, dst *topo.Node) (Path, error) {
	if e := pr.nw.Epoch(); e != pr.memoEpoch {
		clear(pr.memo)
		pr.memoEpoch = e
	}
	key := [2]int{src.ID, dst.ID}
	if m, ok := pr.memo[key]; ok {
		return m.path, m.err
	}
	p, err := pr.route(src, dst)
	p.Nodes = p.Nodes[:len(p.Nodes):len(p.Nodes)]
	p.Links = p.Links[:len(p.Links):len(p.Links)]
	pr.memo[key] = memoRoute{p, err}
	return p, err
}

// route computes Route's result afresh.
func (pr *PolicyRouter) route(src, dst *topo.Node) (Path, error) {
	if src.AS == nil || dst.AS == nil {
		return Path{}, errors.New("routing: host without AS")
	}
	asPath, err := pr.ASPath(src.AS, dst.AS)
	if err != nil {
		return Path{}, err
	}
	full := Path{Nodes: []*topo.Node{src}}
	cur := src
	for i := 0; i+1 < len(asPath); i++ {
		nextAS := asPath[i+1]
		adj := pr.asAdj[asPath[i].ASN][nextAS.ASN]
		if adj == nil {
			return Path{}, fmt.Errorf("%w: missing adjacency %v -> %v", ErrNoRoute, asPath[i], nextAS)
		}
		// Choose the border link with the cheapest intra-AS approach.
		var bestSeg Path
		var bestLink *topo.Link
		bestCost := time.Duration(math.MaxInt64)
		for _, l := range adj.links {
			if !l.Up() {
				continue
			}
			egress, ingress := l.A, l.B
			if egress.AS != asPath[i] {
				egress, ingress = l.B, l.A
			}
			seg, err := pr.intraAS(cur, egress)
			if err != nil {
				continue
			}
			cost := seg.OneWayDelay() + l.Delay() + ingress.ProcDelay
			if cost < bestCost {
				bestCost, bestSeg, bestLink = cost, seg, l
			}
		}
		if bestLink == nil {
			return Path{}, fmt.Errorf("%w: no usable border link %v -> %v", ErrNoRoute, asPath[i], nextAS)
		}
		appendPath(&full, bestSeg)
		ingress := bestLink.Other(full.Nodes[len(full.Nodes)-1])
		full.Links = append(full.Links, bestLink)
		full.Nodes = append(full.Nodes, ingress)
		cur = ingress
	}
	seg, err := pr.intraAS(cur, dst)
	if err != nil {
		return Path{}, err
	}
	appendPath(&full, seg)
	return full, nil
}

// intraAS runs shortest-delay routing constrained to links of one AS.
func (pr *PolicyRouter) intraAS(src, dst *topo.Node) (Path, error) {
	if src == dst {
		return Path{Nodes: []*topo.Node{src}}, nil
	}
	if src.AS != dst.AS {
		return Path{}, errors.New("routing: intraAS across ASes")
	}
	dist := map[int]time.Duration{src.ID: 0}
	prevLink := map[int]*topo.Link{}
	q := &pq{}
	heap.Push(q, &pqItem{node: src, dist: 0})
	settled := map[int]bool{}
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
		if settled[it.node.ID] {
			continue
		}
		settled[it.node.ID] = true
		if it.node == dst {
			break
		}
		for _, l := range pr.nw.LinksOf(it.node) {
			if l.Rel != topo.RelInternal || !l.Up() {
				continue
			}
			next := l.Other(it.node)
			if settled[next.ID] {
				continue
			}
			nd := it.dist + l.Delay() + next.ProcDelay
			if cur, ok := dist[next.ID]; !ok || nd < cur {
				dist[next.ID] = nd
				prevLink[next.ID] = l
				heap.Push(q, &pqItem{node: next, dist: nd})
			}
		}
	}
	if !settled[dst.ID] {
		return Path{}, fmt.Errorf("%w: intra-AS %s -> %s", ErrNoRoute, src.Name, dst.Name)
	}
	return reconstruct(src, dst, prevLink), nil
}

// appendPath extends dst with seg, assuming seg starts at dst's tail.
func appendPath(dst *Path, seg Path) {
	if len(seg.Nodes) == 0 {
		return
	}
	if dst.Nodes[len(dst.Nodes)-1] != seg.Nodes[0] {
		panic("routing: discontinuous path append")
	}
	dst.Nodes = append(dst.Nodes, seg.Nodes[1:]...)
	dst.Links = append(dst.Links, seg.Links...)
}

// ValleyFree verifies the Gao-Rexford invariant on an AS-level path: once
// the path stops climbing (customer->provider edges), it may cross at
// most one peer edge and must then only descend (provider->customer).
func ValleyFree(nw *topo.Network, pr *PolicyRouter, path []*topo.AS) bool {
	const (
		up = iota
		acrossDone
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		adj := pr.asAdj[path[i].ASN][path[i+1].ASN]
		if adj == nil {
			return false
		}
		switch adj.rel {
		case topo.RelCustomer: // climbing to a provider
			if state != up {
				return false
			}
		case topo.RelPeer:
			if state != up {
				return false
			}
			state = acrossDone
		case topo.RelProvider: // descending to a customer
			state = down
		default:
			return false
		}
	}
	return true
}
