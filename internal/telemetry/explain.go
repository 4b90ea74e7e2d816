package telemetry

import (
	"fmt"
	"strings"

	"laminar/internal/difc"
)

// Replay and explain: a denial's provenance record carries the exact
// operands its check saw, so the check can be re-run after the fact —
// from the live ring or from a dump loaded in a different process — and
// the recomputed verdict compared against what was recorded. This is the
// "evidence trail" property: a denial is not a log line but a
// reproducible theorem about two labels and a capability set.

// ReplayResult is the outcome of re-running a recorded decision.
type ReplayResult struct {
	Replayable bool       // the event carried enough operands to re-check
	Denied     bool       // the re-run check's verdict
	Matches    bool       // re-run verdict and delta agree with the record
	Rule       Rule       // rule the re-run check fired (when denied)
	Delta      []difc.Tag // delta the re-run check produced (when denied)
	Reason     string     // why not replayable, or how the verdict diverged
}

// Replay re-runs the DIFC check a recorded event captured.
//
//   - secrecy/integrity denials and allows re-run difc.CheckFlow on the
//     recorded source and destination label pairs;
//   - label-change denials re-run the recorded check shape (change,
//     acquire, drop, subset) on the from/to labels and capability set;
//   - fault trips and policy denials without label operands are
//     recorded-only: Replayable is false.
func Replay(e Event) ReplayResult {
	switch e.Rule {
	case RuleSecrecy, RuleIntegrity:
		return replayFlow(e)
	case RuleLabelChange, RuleCapability:
		return replayChange(e)
	case RuleFault:
		return ReplayResult{Reason: "fault-injected denial: no DIFC check to replay"}
	default:
		if e.Kind == KindAllow && e.hasFlowOperands() {
			return replayFlow(e)
		}
		return ReplayResult{Reason: "no label operands recorded for this event"}
	}
}

func replayFlow(e Event) ReplayResult {
	src, okS := e.srcLabels()
	dst, okD := e.dstLabels()
	if !okS || !okD {
		return ReplayResult{Reason: "label operands not recorded"}
	}
	res := ReplayResult{Replayable: true}
	err := difc.CheckFlow(e.Op, src, dst)
	if fe, ok := err.(*difc.FlowError); ok {
		res.Denied = true
		if fe.Rule == "integrity" {
			res.Rule = RuleIntegrity
		} else {
			res.Rule = RuleSecrecy
		}
		res.Delta = fe.Delta().Tags()
	}
	recordedDeny := e.Kind == KindDeny
	res.Matches = res.Denied == recordedDeny &&
		(!recordedDeny || (res.Rule == e.Rule && difc.NewLabel(res.Delta...).Equal(difc.NewLabel(e.Delta...))))
	if !res.Matches {
		res.Reason = divergence(recordedDeny, e, res)
	}
	return res
}

func replayChange(e Event) ReplayResult {
	const operands = HasSrcS | HasDstS | HasCapP | HasCapM
	if e.Has&operands != operands {
		return ReplayResult{Reason: "label-change operands not recorded"}
	}
	from, to, caps := e.SrcS, e.DstS, difc.NewCapSet(e.CapP, e.CapM)
	res := ReplayResult{Replayable: true}

	var err error
	switch e.Check {
	case "change":
		err = difc.CheckChange(e.Op, from, to, caps)
	case "acquire":
		err = difc.CheckAcquire(e.Op, from, to, caps)
	case "drop":
		if missing := from.Minus(to).Minus(caps.Minus()); !missing.IsEmpty() {
			err = &difc.ChangeError{Op: e.Op, Check: "drop", From: from, To: to, Caps: caps, Missing: missing}
		}
	case "subset":
		// From/To recorded the required plus/minus capability tags.
		req := difc.NewCapSet(from, to)
		if !req.SubsetOf(caps) {
			missing := from.Minus(caps.Plus()).Union(to.Minus(caps.Minus()))
			err = &difc.ChangeError{Op: e.Op, Check: "subset", From: from, To: to, Caps: caps, Missing: missing}
		}
	default:
		return ReplayResult{Reason: fmt.Sprintf("unknown check shape %q", e.Check)}
	}
	if ce, ok := err.(*difc.ChangeError); ok {
		res.Denied = true
		if ce.Check == "subset" {
			res.Rule = RuleCapability
		} else {
			res.Rule = RuleLabelChange
		}
		res.Delta = ce.Missing.Tags()
	}
	recordedDeny := e.Kind == KindDeny
	res.Matches = res.Denied == recordedDeny &&
		(!recordedDeny || difc.NewLabel(res.Delta...).Equal(difc.NewLabel(e.Delta...)))
	if !res.Matches {
		res.Reason = divergence(recordedDeny, e, res)
	}
	return res
}

func divergence(recordedDeny bool, e Event, res ReplayResult) string {
	verdict := func(d bool) string {
		if d {
			return "deny"
		}
		return "allow"
	}
	if res.Denied != recordedDeny {
		return fmt.Sprintf("recorded %s but replay says %s", verdict(recordedDeny), verdict(res.Denied))
	}
	return fmt.Sprintf("recorded delta %v but replay produced %v (rule %s vs %s)",
		e.Delta, res.Delta, e.Rule, res.Rule)
}

// Explain renders a human-readable account of a recorded decision: the
// site and operation, the rule and operands, the offending tag delta,
// and the verdict of re-running the identical check now.
func Explain(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "event #%d: %s at %s (layer %s, tid %d)\n", e.Seq, e.Kind, e.Site, e.Layer, e.TID)
	if e.Op != "" {
		fmt.Fprintf(&b, "  operation: %s\n", e.Op)
	}
	switch e.Rule {
	case RuleSecrecy, RuleIntegrity:
		src, _ := e.srcLabels()
		dst, _ := e.dstLabels()
		fmt.Fprintf(&b, "  rule: %s\n  source: %v\n  destination: %v\n", e.Rule, src, dst)
		if e.Rule == RuleSecrecy {
			fmt.Fprintf(&b, "  check: Bell–LaPadula requires S(src) ⊆ S(dst); source carries %v beyond the destination\n", e.Delta)
		} else {
			fmt.Fprintf(&b, "  check: Biba requires I(dst) ⊆ I(src); destination demands %v beyond the source\n", e.Delta)
		}
	case RuleLabelChange, RuleCapability:
		from, to, caps := e.SrcS, e.DstS, difc.NewCapSet(e.CapP, e.CapM)
		if e.Check == "subset" {
			fmt.Fprintf(&b, "  rule: %s (%s)\n  required: %v\n  held: %v\n", e.Rule, e.Check, difc.NewCapSet(from, to), caps)
		} else {
			fmt.Fprintf(&b, "  rule: %s (%s)\n  from: %v\n  to: %v\n  capabilities: %v\n", e.Rule, e.Check, from, to, caps)
		}
		fmt.Fprintf(&b, "  check: label-change rule; no capability held for %v\n", e.Delta)
	case RuleFault:
		fmt.Fprintf(&b, "  rule: fault (fail-closed denial from injected fault)\n  detail: %s\n", e.Detail)
	default:
		if e.Detail != "" {
			fmt.Fprintf(&b, "  detail: %s\n", e.Detail)
		}
	}
	res := Replay(e)
	switch {
	case !res.Replayable:
		fmt.Fprintf(&b, "  replay: not replayable (%s)\n", res.Reason)
	case res.Matches:
		verdict := "allow"
		if res.Denied {
			verdict = "deny"
		}
		fmt.Fprintf(&b, "  replay: re-ran the check — verdict %s, delta %v: MATCHES the record\n", verdict, res.Delta)
	default:
		fmt.Fprintf(&b, "  replay: DIVERGED — %s\n", res.Reason)
	}
	return b.String()
}
