package kernel

import (
	"errors"
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// siteInjector injects a scripted fault kind at exactly one site and
// records every site it is asked about.
type siteInjector struct {
	site  string
	kind  faultinject.Kind
	asked []string
}

func (s *siteInjector) At(site string) faultinject.Kind {
	s.asked = append(s.asked, site)
	if site == s.site {
		return s.kind
	}
	return faultinject.None
}

// TestWithoutTelemetryBoot: the uninstrumented baseline really installs
// no wrapper — Telemetry() is nil and syscalls run unobserved.
func TestWithoutTelemetryBoot(t *testing.T) {
	k := New(WithSecurityModule(tagModule{}), WithoutTelemetry())
	if k.Telemetry() != nil {
		t.Fatal("WithoutTelemetry kernel still exposes a recorder")
	}
	init := k.InitTask()
	fd, err := k.CreateFileLabeled(init, "/tmp/plain", 0o644, difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	k.Close(init, fd)
}

// TestTelemetryDefaultRecorder: booting with a module but no explicit
// recorder wires the hooks to telemetry.Default (off by default).
func TestTelemetryDefaultRecorder(t *testing.T) {
	k := New(WithSecurityModule(tagModule{}))
	if k.Telemetry() != telemetry.Default {
		t.Fatal("no-option boot did not fall back to telemetry.Default")
	}
}

// TestTelemetryMmapPath drives mmap + page faults through the wrapper at
// LevelAll: the MmapFile hook must be observed on both the mmap syscall
// and the file-backed fault path.
func TestTelemetryMmapPath(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelAll)
	k := New(WithSecurityModule(tagModule{}), WithTelemetry(rec))
	init := k.InitTask()

	fd, err := k.CreateFileLabeled(init, "/tmp/map", 0o644, difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(init, fd, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	addr, err := k.Mmap(init, PageSize, ProtRead, fd)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.PageFault(init, addr, false); err != nil {
		t.Fatal(err)
	}
	k.Close(init, fd)

	var mmaps int
	for _, e := range rec.Snapshot() {
		if e.Site == "hook.MmapFile" && e.Kind == telemetry.KindAllow {
			mmaps++
		}
	}
	if mmaps < 2 {
		t.Fatalf("want MmapFile observed at mmap and fault time, got %d events", mmaps)
	}
}

// TestMaskOp pins the mask→operation naming the provenance records use.
func TestMaskOp(t *testing.T) {
	cases := []struct {
		mask AccessMask
		want string
	}{
		{MayRead, "read"},
		{MayWrite, "write"},
		{MayExec, "exec"},
		{MayUnlink, "unlink"},
		{MayRead | MayExec, "read|exec"},
		{MayRead | MayWrite, "read|write"},
		{MayWrite | MayExec, "access"},
	}
	for _, c := range cases {
		if got := maskOp(c.mask); got != c.want {
			t.Errorf("maskOp(%v) = %q, want %q", c.mask, got, c.want)
		}
	}
}

// TestFaultableHooks pins which hooks are fault-injection points. Each of
// the 14 error-returning hooks is driven through one syscall twice: once
// with an injected Error at hook.<Name> and once clean. The ten faultable
// hooks must consult hook.<Name>, fail closed with ErrIO and be
// classified RuleFault. AllocTag, DropLabelTCB and the privilege-shedding
// DropCapabilities and RestoreCapabilities must never consult any hook.*
// site, so the Error changes nothing (DESIGN.md §8). Clean runs must pass
// through to the module.
func TestFaultableHooks(t *testing.T) {
	notFaultable := map[string]bool{
		"AllocTag": true, "DropLabelTCB": true, "DropCapabilities": true, "RestoreCapabilities": true,
	}
	hooks := []string{
		"TaskAlloc", "InodeInitSecurity", "InodePostCreate", "InodePermission",
		"FilePermission", "MmapFile", "TaskKill", "SetTaskLabel",
		"WriteCapability", "ReadCapability",
		"AllocTag", "DropLabelTCB", "DropCapabilities", "RestoreCapabilities",
	}
	for _, hook := range hooks {
		t.Run(hook, func(t *testing.T) {
			for _, faulty := range []bool{true, false} {
				inj := &siteInjector{kind: faultinject.Error} // armed after set-up
				rec := telemetry.NewRecorder()
				rec.SetLevel(telemetry.LevelDeny)
				k := New(WithSecurityModule(tagModule{}), WithFaultInjector(inj), WithTelemetry(rec))
				init := k.InitTask()
				child, err := k.Fork(init, nil)
				if err != nil {
					t.Fatal(err)
				}
				fd, err := k.CreateFileLabeled(init, "/tmp/f", 0o644, difc.Labels{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := k.Write(init, fd, []byte("x")); err != nil {
					t.Fatal(err)
				}
				rp, wp, err := k.Pipe(init)
				if err != nil {
					t.Fatal(err)
				}
				if faulty {
					inj.site = "hook." + hook
				}
				inj.asked = nil

				var got error
				switch hook {
				case "TaskAlloc":
					_, got = k.Fork(init, nil)
				case "InodeInitSecurity":
					_, _, got = k.Pipe(init)
				case "InodePostCreate":
					got = k.Mkdir(init, "/tmp/d", 0o755)
				case "InodePermission":
					_, got = k.Stat(init, "/tmp/f")
				case "FilePermission":
					_, got = k.Write(init, fd, []byte("y"))
				case "MmapFile":
					_, got = k.Mmap(init, PageSize, ProtRead, fd)
				case "TaskKill":
					got = k.Kill(init, child.TID, SIGUSR1)
				case "SetTaskLabel":
					got = k.SetTaskLabel(init, Secrecy, difc.Label{})
				case "WriteCapability":
					got = k.WriteCapability(init, Capability{}, wp)
				case "ReadCapability":
					_, got = k.ReadCapability(init, rp)
				case "AllocTag":
					_, got = k.AllocTag(init)
				case "DropLabelTCB":
					got = k.DropLabelTCB(init, child.TID)
				case "DropCapabilities":
					got = k.DropCapabilities(init, nil, true)
				case "RestoreCapabilities":
					got = k.RestoreCapabilities(init)
				}

				consulted := false
				for _, site := range inj.asked {
					if site == "hook."+hook {
						consulted = true
					}
					if notFaultable[hook] && strings.HasPrefix(site, "hook.") {
						t.Fatalf("%s consulted the injector at %s (asked: %v)", hook, site, inj.asked)
					}
				}
				if !notFaultable[hook] && !consulted {
					t.Fatalf("%s never consulted hook.%s (asked: %v)", hook, hook, inj.asked)
				}

				if faulty && !notFaultable[hook] {
					if !errors.Is(got, ErrIO) {
						t.Fatalf("injected fault in %s returned %v, want ErrIO", hook, got)
					}
					denials := rec.Denials()
					if len(denials) == 0 || denials[len(denials)-1].Rule != telemetry.RuleFault {
						t.Fatalf("fault in %s not recorded as RuleFault: %v", hook, denials)
					}
					continue
				}
				// tagModule allows everything except AllocTag and
				// ReadCapability, which report ENOSYS from the module.
				if hook == "AllocTag" || hook == "ReadCapability" {
					if !errors.Is(got, ErrNoSys) {
						t.Fatalf("%s returned %v, want the module's ErrNoSys", hook, got)
					}
				} else if got != nil {
					t.Fatalf("%s returned %v", hook, got)
				}
			}
		})
	}
}
