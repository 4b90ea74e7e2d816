package rt

import (
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// TestTerminationChannelDocumented encodes Figure 6: a security region
// that loops forever when the secret H is true leaks one bit through
// whether control ever continues past the region. Laminar (like the
// paper's system) does NOT close this channel — the test documents the
// channel's existence and that the catch/fall-through machinery is not a
// defense against it, matching §4.3.3's discussion.
func TestTerminationChannelDocumented(t *testing.T) {
	_, main := newVM(t)
	h, _ := main.CreateTag()
	hLabels := difc.Labels{S: difc.NewLabel(h)}

	// H = false: the region terminates and control continues — the
	// observer learns H is false. (With H = true the region would spin
	// forever; we run it under a watchdog to document the behaviour
	// without hanging the suite.)
	var H *Object
	main.Secure(hLabels, difc.EmptyCapSet, func(r *Region) {
		H = r.Alloc(nil)
		r.Set(H, "v", false)
	}, nil)

	done := make(chan struct{})
	go func() {
		main.Secure(hLabels, difc.EmptyCapSet, func(r *Region) {
			for r.Get(H, "v").(bool) {
				// while (true) {} — the Figure 6 loop
			}
		}, func(r *Region, e any) {})
		close(done)
	}()
	select {
	case <-done:
		// Control continued: the unprivileged observer now knows H was
		// false. That is the termination channel, present by design.
	case <-time.After(5 * time.Second):
		t.Fatal("region with H=false failed to terminate")
	}
}

// TestMemoizationIncompatibility encodes §4.6: a library that memoizes
// results without regard for labels breaks under any DIFC system. A
// function memoizes into a labeled object from a region with one label; a
// later call from a differently-labeled region is (correctly) stopped
// from returning the memoized value.
func TestMemoizationIncompatibility(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()

	// The "library" cache: memoized inside an {S(a)} region, so the cache
	// object carries {S(a)}.
	var cache *Object
	expensive := func(r *Region, x int) int { return x * x }
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		cache = r.Alloc(nil)
		r.Set(cache, "42", expensive(r, 42))
	}, nil)

	// A later call from an {S(b)} region tries to reuse the memo: the
	// read barrier rejects it (S(a) ⊄ S(b)), exactly the §4.6 failure.
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(b)}, difc.EmptyCapSet, func(r *Region) {
		_ = r.Get(cache, "42")
		t.Error("memoized secret crossed labels")
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("no violation for cross-label memo reuse")
	}
}

// TestConcurrentRegionsStress runs many goroutine-bound threads entering
// regions over shared labeled objects concurrently, exercising the
// paper's headline multithreading claim under the race detector.
func TestConcurrentRegionsStress(t *testing.T) {
	vm, main := newVM(t)
	const nThreads = 8
	const nOps = 200

	tags := make([]difc.Tag, nThreads)
	objs := make([]*Object, nThreads)
	threads := make([]*Thread, nThreads)
	for i := 0; i < nThreads; i++ {
		tag, err := main.CreateTag()
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tag
		main.Secure(difc.Labels{S: difc.NewLabel(tag)}, difc.EmptyCapSet, func(r *Region) {
			objs[i] = r.Alloc(nil)
			r.Set(objs[i], "n", 0)
		}, nil)
	}
	// Each thread gets plus capabilities for two adjacent tags.
	for i := 0; i < nThreads; i++ {
		keep := []capKeep{{tags[i]}, {tags[(i+1)%nThreads]}}
		th, err := main.Fork(keepCaps(keep))
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
	}

	errs := make(chan error, nThreads)
	for i := 0; i < nThreads; i++ {
		i := i
		go func() {
			th := threads[i]
			for op := 0; op < nOps; op++ {
				target := i
				if op%2 == 1 {
					target = (i + 1) % nThreads
				}
				err := th.Secure(difc.Labels{S: difc.NewLabel(tags[target])}, difc.EmptyCapSet, func(r *Region) {
					n := r.Get(objs[target], "n").(int)
					r.Set(objs[target], "n", n+1)
				}, nil)
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < nThreads; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Each object was incremented by its owner and its left neighbor:
	// 2 × nOps/2 increments each. (Increments are not atomic across
	// regions — writers serialize each field write, not the
	// read-modify-write — so just check the objects remain readable and
	// labeled.)
	total := 0
	for i := 0; i < nThreads; i++ {
		main.Secure(difc.Labels{S: difc.NewLabel(tags[i])}, difc.EmptyCapSet, func(r *Region) {
			total += r.Get(objs[i], "n").(int)
		}, nil)
	}
	if total == 0 {
		t.Error("no increments landed")
	}
	if vm.Stats().RegionsEntered.Load() < nThreads*nOps {
		t.Errorf("regions entered = %d", vm.Stats().RegionsEntered.Load())
	}
}

// capKeep/keepCaps are small helpers for building fork keep-sets.
type capKeep struct{ tag difc.Tag }

func keepCaps(ks []capKeep) []kernel.Capability {
	out := make([]kernel.Capability, len(ks))
	for i, k := range ks {
		out[i] = kernel.Capability{Tag: k.tag, Kind: difc.CapPlus}
	}
	return out
}
