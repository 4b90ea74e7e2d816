package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"laminar/internal/difc"
)

// explain-route: reconstruct the hop-by-hop path of one traced flow from
// any collection of events — typically N per-node dumps concatenated —
// and re-run every recorded check along it. Events from different nodes
// merge on the v2 node/trace headers; within a hop, repeated identical
// checks (a relay pump re-checks its endpoints every tick) collapse to
// one representative so the report reads as the route, not the schedule.

// HopCheck is one distinct recorded check at a hop, with its replay.
type HopCheck struct {
	Event  Event
	Result ReplayResult
}

// HopReport is everything one node contributed to a traced flow.
type HopReport struct {
	Hop       uint8
	Node      uint64
	NodeEpoch uint64
	Checks    []HopCheck
	Denied    bool // some check at this hop denied
}

// RouteReport is the reconstructed path of one trace id.
type RouteReport struct {
	TraceID     uint64
	Origin      uint64
	OriginEpoch uint64
	Hops        []HopReport
	Denied      bool
	DeniedHop   uint8 // first hop that denied (valid when Denied)
}

// dedupKey collapses repeated identical checks at one hop.
type dedupKey struct {
	node, epoch            uint64
	hop                    uint8
	site, op               string
	kind                   Kind
	rule                   Rule
	srcS, srcI, dstS, dstI difc.Label
	has                    Operands
}

// ExplainRoute filters events to one trace id and reconstructs its
// route. Only verdict events participate: denials, and allows that
// carry label operands (the traced rich allows lsm.checkAccess emits);
// operand-free hook allows would add nothing replayable.
func ExplainRoute(traceID uint64, events []Event) (RouteReport, error) {
	rep := RouteReport{TraceID: traceID}
	seen := map[dedupKey]bool{}
	groups := map[[3]uint64]*HopReport{}
	for _, e := range events {
		if e.TraceID != traceID {
			continue
		}
		if e.Kind != KindDeny && !(e.Kind == KindAllow && e.hasFlowOperands()) {
			continue
		}
		rep.Origin, rep.OriginEpoch = e.TraceOrigin, e.TraceEpoch
		k := dedupKey{e.Node, e.NodeEpoch, e.TraceHop, e.Site, e.Op, e.Kind, e.Rule, e.SrcS, e.SrcI, e.DstS, e.DstI, e.Has}
		if seen[k] {
			continue
		}
		seen[k] = true
		gk := [3]uint64{uint64(e.TraceHop), e.Node, e.NodeEpoch}
		g, ok := groups[gk]
		if !ok {
			g = &HopReport{Hop: e.TraceHop, Node: e.Node, NodeEpoch: e.NodeEpoch}
			groups[gk] = g
		}
		g.Checks = append(g.Checks, HopCheck{Event: e, Result: Replay(e)})
		if e.Kind == KindDeny {
			g.Denied = true
		}
	}
	if len(groups) == 0 {
		return rep, fmt.Errorf("telemetry: no verdict events for trace %#x", traceID)
	}
	for _, g := range groups {
		sort.Slice(g.Checks, func(i, j int) bool {
			a, b := g.Checks[i].Event, g.Checks[j].Event
			if a.Seq != b.Seq {
				return a.Seq < b.Seq
			}
			return a.Op < b.Op
		})
		rep.Hops = append(rep.Hops, *g)
	}
	sort.Slice(rep.Hops, func(i, j int) bool {
		a, b := rep.Hops[i], rep.Hops[j]
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.NodeEpoch < b.NodeEpoch
	})
	for _, h := range rep.Hops {
		if h.Denied && !rep.Denied {
			rep.Denied = true
			rep.DeniedHop = h.Hop
		}
	}
	return rep, nil
}

// TracedDenials lists the distinct trace ids that have at least one
// denial in the event set, most recent denial first.
func TracedDenials(events []Event) []uint64 {
	latest := map[uint64]uint64{} // trace id -> highest deny seq
	for _, e := range events {
		if e.Kind == KindDeny && e.TraceID != 0 && e.Seq >= latest[e.TraceID] {
			latest[e.TraceID] = e.Seq
		}
	}
	ids := make([]uint64, 0, len(latest))
	for id := range latest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return latest[ids[i]] > latest[ids[j]] })
	return ids
}

// FormatRoute renders the route report: one block per hop with the label
// delta each check saw and whether the re-run check MATCHES the record.
func FormatRoute(rep RouteReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %#x: origin node %d (epoch %d), %d hop(s)\n",
		rep.TraceID, rep.Origin, rep.OriginEpoch, len(rep.Hops))
	for _, h := range rep.Hops {
		verdict := "allowed"
		if h.Denied {
			verdict = "DENIED"
		}
		fmt.Fprintf(&b, "hop %d @ node %d (epoch %d): %s\n", h.Hop, h.Node, h.NodeEpoch, verdict)
		for _, c := range h.Checks {
			e := c.Event
			src, _ := e.srcLabels()
			dst, _ := e.dstLabels()
			switch e.Kind {
			case KindDeny:
				fmt.Fprintf(&b, "  %s %s deny rule=%s %v -> %v delta=%v\n",
					e.Site, e.Op, e.Rule, src, dst, e.Delta)
			default:
				fmt.Fprintf(&b, "  %s %s allow %v -> %v\n", e.Site, e.Op, src, dst)
			}
			switch {
			case !c.Result.Replayable:
				fmt.Fprintf(&b, "    replay: not replayable (%s)\n", c.Result.Reason)
			case c.Result.Matches:
				fmt.Fprintf(&b, "    replay: MATCHES the record\n")
			default:
				fmt.Fprintf(&b, "    replay: DIVERGED — %s\n", c.Result.Reason)
			}
		}
	}
	if rep.Denied {
		fmt.Fprintf(&b, "verdict: flow denied at hop %d\n", rep.DeniedHop)
	} else {
		fmt.Fprintf(&b, "verdict: flow allowed end to end\n")
	}
	return b.String()
}
