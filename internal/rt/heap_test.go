package rt

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"laminar/internal/difc"
)

// TestFieldSlotsDifferential drives one labeled object through seeded
// random sequences of checked and unchecked (rawGet/rawSet) field reads
// and writes and CopyAndLabel, and compares every read with a
// map[string]any model. A copy must hold the same fields as its source
// and share no slot with it: writing either afterwards never shows
// through the other.
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
					if got, want := o.rawGet(n), model[n]; got != want {
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
					o.rawSet(n, v)
					model[n] = v
				case 2:
					if got, want := r.Get(o, n), model[n]; got != want {
						t.Fatalf("seed %d step %d: Get(%s) = %v, model %v", seed, step, n, got, want)
					}
				case 3:
					if got, want := o.rawGet(n), model[n]; got != want {
						t.Fatalf("seed %d step %d: rawGet(%s) = %v, model %v", seed, step, n, got, want)
					}
				case 4:
					cp := r.CopyAndLabel(o, l)
					check(step, cp, model)
					for c := cp.fields.Load(); c != nil; c = c.next {
						for s := o.fields.Load(); s != nil; s = s.next {
							if c == s {
								t.Fatalf("seed %d step %d: copy shares the source's slot %q", seed, step, s.name)
							}
						}
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
// Alloc plus one Set is the object itself and one field slot, two
// allocations of at most 112 B together (a 64 B object, whose label pair
// is two words, and a 48 B slot). A per-object map costs a
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

// stormValue is writer w's n-th value in TestSharedCellStormRace. It
// alternates a *stormStamp and a string, each carrying a checksum of w
// and n, so a read that paired one value's type word with another's data
// word, or returned half of a write, fails checkStormValue.
func stormValue(w, n int) any {
	if n%2 == 0 {
		return &stormStamp{w: w, n: n, sum: stormSum(w, n)}
	}
	return fmt.Sprintf("%d/%d/%d", w, n, stormSum(w, n))
}

type stormStamp struct{ w, n, sum int }

func stormSum(w, n int) int { return w*1_000_003 + n }

// checkStormValue accepts exactly the values stormValue returns for a
// writer below writers and a step below steps.
func checkStormValue(v any, writers, steps int) error {
	var w, n, sum int
	switch v := v.(type) {
	case *stormStamp:
		if v == nil || v.n%2 != 0 {
			return fmt.Errorf("stored no such stamp: %+v", v)
		}
		w, n, sum = v.w, v.n, v.sum
	case string:
		if _, err := fmt.Sscanf(v, "%d/%d/%d", &w, &n, &sum); err != nil || n%2 != 1 {
			return fmt.Errorf("stored no such string: %q", v)
		}
	default:
		return fmt.Errorf("stored no value of type %T", v)
	}
	if w < 0 || w >= writers || n < 0 || n >= steps || sum != stormSum(w, n) {
		return fmt.Errorf("stored no such value: writer %d step %d sum %d", w, n, sum)
	}
	return nil
}

// TestSharedCellStormRace runs rt threads, each on its own goroutine,
// inside regions at once over shared labeled cells: they overwrite
// existing names, add new ones, read every name and CopyAndLabel cells
// that others are writing. Other goroutines, outside any region, write
// and raw-read shared unlabeled objects. Every read must return nil for a
// name never written or a value some writer stored, whole. Run it under
// -race: field reads take no lock, so the detector checks that each
// published slot is fully written before a reader can reach it.
func TestSharedCellStormRace(t *testing.T) {
	const (
		regionThreads = 4
		rawWriters    = 1
		rawReaders    = 2
		cells         = 3
	)
	steps := 2000
	if raceEnabled {
		steps = 1000
	}
	writers := regionThreads + rawWriters + 1 // the last id seeds the cells
	seeder := writers - 1
	_, main := newVM(t)
	tag, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}
	names := []string{"a", "b", "x0", "x1", "x2", "x3"}
	var shared [cells]*Object
	err = main.Secure(secret, difc.EmptyCapSet, func(r *Region) {
		for c := range shared {
			shared[c] = r.Alloc(nil)
			r.Set(shared[c], "a", stormValue(seeder, 0))
			r.Set(shared[c], "b", stormValue(seeder, 1))
		}
	}, func(_ *Region, e any) { t.Fatalf("region refused: %v", e) })
	if err != nil {
		t.Fatal(err)
	}
	var plain [cells]*Object
	for c := range plain {
		plain[c] = NewObject()
		plain[c].RawSet("a", stormValue(seeder, 0))
	}
	// check reads every name through get: the first two are always set.
	check := func(get func(string) any) error {
		for i, n := range names {
			v := get(n)
			if v == nil && i >= 2 {
				continue
			}
			if err := checkStormValue(v, writers, steps); err != nil {
				return fmt.Errorf("field %s: %w", n, err)
			}
		}
		return nil
	}

	threads := make([]*Thread, regionThreads)
	for i := range threads {
		if threads[i], err = main.Fork(keepCaps([]capKeep{{tag}})); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	errs := make(chan error, regionThreads+rawWriters+rawReaders)
	for w, th := range threads {
		w, th := w, th
		go func() {
			<-start
			var failed error
			for n := 0; n < steps && failed == nil; n++ {
				err := th.Secure(secret, difc.EmptyCapSet, func(r *Region) {
					o := shared[(w+n)%cells]
					name := names[n%len(names)]
					r.Set(o, name, stormValue(w, n))
					failed = check(func(f string) any { return r.Get(shared[(w+n+1)%cells], f) })
					if failed == nil && n%8 == 0 {
						cp := r.CopyAndLabel(shared[(w+n+2)%cells], secret)
						failed = check(func(f string) any { return r.Get(cp, f) })
					}
				}, func(_ *Region, e any) { failed = fmt.Errorf("region raised %v", e) })
				if err != nil {
					failed = err
				}
			}
			errs <- failed
		}()
	}
	for w := regionThreads; w < regionThreads+rawWriters; w++ {
		w := w
		go func() {
			<-start
			for n := 0; n < steps; n++ {
				plain[n%cells].RawSet(names[(n/cells)%len(names)], stormValue(w, n))
			}
			errs <- nil
		}()
	}
	for i := 0; i < rawReaders; i++ {
		i := i
		go func() {
			<-start
			for n := 0; n < steps; n++ {
				o := plain[(i+n)%cells]
				for _, f := range names {
					if v := o.RawGet(f); v != nil || f == "a" {
						if err := checkStormValue(v, writers, steps); err != nil {
							errs <- fmt.Errorf("raw read of %s: %w", f, err)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for i := 0; i < regionThreads+rawWriters+rawReaders; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
