package dacapo

import (
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/rt"
)

func TestRegionSweepPoints(t *testing.T) {
	pts := RegionSweep()
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].PctInside != 0 || pts[len(pts)-1].PctInside != 100 {
		t.Errorf("endpoints = %d..%d", pts[0].PctInside, pts[len(pts)-1].PctInside)
	}
}

func TestRegionSweepProgramsVerifyAndRun(t *testing.T) {
	for _, pt := range RegionSweep() {
		p, err := BuildRegionSweep(pt)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: verify: %v", pt.Name, err)
		}
		var want int64
		for i, mode := range []jvm.BarrierMode{jvm.BarrierNone, jvm.BarrierStatic} {
			p.ResetCompilation()
			mc, err := jvm.NewMachine(p, jvm.CompileOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			v, err := mc.Call(hostThread(t, p), "run", jvm.IntV(20))
			if err != nil {
				t.Fatalf("%s mode %v: %v", pt.Name, mode, err)
			}
			if i == 0 {
				want = v.Int()
			} else if v.Int() != want {
				t.Errorf("%s: checksum %d != %d across modes", pt.Name, v.Int(), want)
			}
			if mode == jvm.BarrierStatic {
				// Sweep points with inside work must actually enter
				// regions; 0% must not.
				st := mc.Stats()
				if pt.PctInside > 0 && st.RegionsEntered == 0 {
					t.Errorf("%s: no regions entered", pt.Name)
				}
				if pt.PctInside == 0 && st.RegionsEntered != 0 {
					t.Errorf("%s: unexpected regions", pt.Name)
				}
				if st.Violations != 0 {
					t.Errorf("%s: violations = %d", pt.Name, st.Violations)
				}
			}
		}
		_ = want
	}
}

func TestRegionSweepOutsideWorkMatchesChecksum(t *testing.T) {
	// The 0% point's checksum counts all work on the unlabeled object:
	// 20 iterations × 40 units.
	p, err := BuildRegionSweep(RegionSweepPoint{Name: "x", PctInside: 0, WorkUnits: 40, SecrecyTag: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := jvm.NewMachine(p, jvm.CompileOptions{Mode: jvm.BarrierNone})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, p), "run", jvm.IntV(20))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 20*40 {
		t.Errorf("checksum = %d, want %d", v.Int(), 20*40)
	}
}

// hostThread returns a thread holding p's credentials.
func hostThread(t *testing.T, p *jvm.Program) *rt.Thread {
	t.Helper()
	th, err := jvm.HostThread(p)
	if err != nil {
		t.Fatal(err)
	}
	return th
}
