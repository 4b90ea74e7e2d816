package jvm

import (
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/rt"
)

// HostThread boots a kernel with the Laminar security module, launches an
// rt VM on it, and returns the VM's main thread, whose kernel task holds
// the capabilities prog's secure methods name: the plus capability for
// every tag in a region's labels, and every capability in a region's
// capability set. Granting them is the host's decision: it vouches for
// the program's outermost regions, which rt then judges against the
// task's capabilities like any other region entry. A host that grants
// less (rt.New, then Thread.GrantCapability) gets deny-enter traps.
func HostThread(prog *Program) (*rt.Thread, error) {
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(k.Telemetry())
	shell, err := mod.Login(k, "jvm")
	if err != nil {
		return nil, err
	}
	_, th, err := rt.New(k, mod, shell)
	if err != nil {
		return nil, err
	}
	grant := func(l difc.Label, kind difc.CapKind) {
		for _, tag := range l.Tags() {
			th.GrantCapability(tag, kind)
		}
	}
	for _, m := range prog.Methods {
		if s := m.Secure; s != nil {
			grant(s.Labels.S, difc.CapPlus)
			grant(s.Labels.I, difc.CapPlus)
			grant(s.Caps.Plus(), difc.CapPlus)
			grant(s.Caps.Minus(), difc.CapMinus)
		}
	}
	return th, nil
}
