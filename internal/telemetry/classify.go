package telemetry

import (
	"errors"

	"laminar/internal/difc"
)

// DenyEvent builds the provenance record for a denial error. The difc
// package's structured errors carry everything replay needs:
//
//   - *difc.FlowError (secrecy / integrity): the exact CheckFlow operands
//     and the offending tag delta. Src/Dst hold both label pairs.
//   - *difc.ChangeError (label-change family): the from/to labels, the
//     capability set the check ran against, the check shape ("change",
//     "acquire", "drop", "subset") and the capability-less tags.
//     Src(S)/Dst(S) hold the from/to labels, CapP/CapM the caps.
//
// Anything else — policy refusals without label operands, injected
// faults — records as an unclassified denial carrying only the error
// text; the kernel's hook gate upgrades fault-injected denials to
// RuleFault itself because only it knows the injector fired.
//
// The event stores the operands' label words, never tag-slice copies;
// the Delta is the one allocation that survives per event.
func DenyEvent(layer Layer, site, op string, tid, proc uint64, err error) Event {
	e := Event{Layer: layer, Kind: KindDeny, Op: op, Site: site, TID: tid, Proc: proc}
	if err == nil {
		return e
	}
	e.Detail = err.Error()

	var fe *difc.FlowError
	var ce *difc.ChangeError
	switch {
	case errors.As(err, &fe):
		if fe.Rule == "integrity" {
			e.Rule = RuleIntegrity
		} else {
			e.Rule = RuleSecrecy
		}
		e.Op = fe.Op
		e.SetSrc(fe.Src)
		e.SetDst(fe.Dst)
		e.Delta = fe.Delta().Tags()
	case errors.As(err, &ce):
		if ce.Check == "subset" {
			e.Rule = RuleCapability
		} else {
			e.Rule = RuleLabelChange
		}
		e.Op = ce.Op
		e.Check = ce.Check
		e.SrcS, e.DstS = ce.From, ce.To
		e.CapP, e.CapM = ce.Caps.Plus(), ce.Caps.Minus()
		e.Has |= HasSrcS | HasDstS | HasCapP | HasCapM
		e.Delta = ce.Missing.Tags()
	}
	return e
}
