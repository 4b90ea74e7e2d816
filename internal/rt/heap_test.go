package rt

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"laminar/internal/difc"
)

// TestFieldSlotsDifferential drives one labeled object through seeded
// random sequences of checked and raw field reads and writes and
// CopyAndLabel, and compares every read with a map[string]any model. A
// copy must hold the same fields as its source and share no slot with
// it: writing either afterwards never shows through the other.
func TestFieldSlotsDifferential(t *testing.T) {
	_, main := newVM(t)
	tag, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	l := difc.Labels{S: difc.NewLabel(tag)}
	var names [16]string
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Each seed uses between 1 and 16 distinct names.
		used := names[:1+rng.Intn(len(names))]
		err := main.Secure(l, difc.EmptyCapSet, func(r *Region) {
			o := r.Alloc(nil)
			model := map[string]any{}
			check := func(step int, o *Object, model map[string]any) {
				for _, n := range names {
					if got, want := o.RawGet(n), model[n]; got != want {
						t.Fatalf("seed %d step %d: field %s = %v, model %v", seed, step, n, got, want)
					}
				}
			}
			for step := 0; step < 400; step++ {
				n := used[rng.Intn(len(used))]
				switch op := rng.Intn(5); op {
				case 0:
					v := rng.Intn(1000)
					r.Set(o, n, v)
					model[n] = v
				case 1:
					v := fmt.Sprint(rng.Intn(1000))
					o.RawSet(n, v)
					model[n] = v
				case 2:
					if got, want := r.Get(o, n), model[n]; got != want {
						t.Fatalf("seed %d step %d: Get(%s) = %v, model %v", seed, step, n, got, want)
					}
				case 3:
					if got, want := o.RawGet(n), model[n]; got != want {
						t.Fatalf("seed %d step %d: RawGet(%s) = %v, model %v", seed, step, n, got, want)
					}
				case 4:
					cp := r.CopyAndLabel(o, l)
					check(step, cp, model)
					if len(cp.fields) > 0 && &cp.fields[0] == &o.fields[0] {
						t.Fatalf("seed %d step %d: copy shares the source's slots", seed, step)
					}
					cpModel := make(map[string]any, len(model))
					for k, v := range model {
						cpModel[k] = v
					}
					// Overwrite one existing field and add one name on
					// the copy, then write the source: neither shows
					// through the other.
					for k := range cpModel {
						r.Set(cp, k, "copy")
						cpModel[k] = "copy"
						break
					}
					extra := names[rng.Intn(len(names))]
					r.Set(cp, extra, "copy-extra")
					cpModel[extra] = "copy-extra"
					r.Set(o, n, "source")
					model[n] = "source"
					check(step, o, model)
					check(step, cp, cpModel)
					if rng.Intn(2) == 0 {
						o, model = cp, cpModel
					}
				}
				check(step, o, model)
			}
			if got := r.Get(o, "never-set"); got != nil {
				t.Fatalf("seed %d: missing field = %v, want nil", seed, got)
			}
		}, func(_ *Region, e any) { t.Fatalf("seed %d: region refused: %v", seed, e) })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLabeledObjectFootprint pins what a labeled object costs at rest:
// Alloc plus one Set is the object itself and a one-slot field slice,
// two allocations of at most 112 B together (an 80 B object, whose
// label pair is two words, and a 32 B slot). A per-object map costs a
// third allocation and several times the bytes.
func TestLabeledObjectFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	_, main := newVM(t)
	tag, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	err = main.Secure(difc.Labels{S: difc.NewLabel(tag)}, difc.EmptyCapSet, func(r *Region) {
		cell := func() {
			o := r.Alloc(nil)
			r.Set(o, "grade", 1)
			sink = o
		}
		if got := testing.AllocsPerRun(100, cell); got != 2 {
			t.Errorf("labeled Alloc + Set allocates %v times, want 2", got)
		}
		if got := bytesPerRun(1000, cell); got > 112 {
			t.Errorf("labeled Alloc + Set allocates %d B, want at most 112", got)
		}
	}, func(_ *Region, e any) { t.Errorf("region refused: %v", e) })
	if err != nil {
		t.Fatal(err)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// allocated per call of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
