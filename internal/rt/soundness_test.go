package rt

import (
	"fmt"
	"math/rand"
	"testing"

	"laminar/internal/difc"
)

// Soundness fuzz: a randomized end-to-end check of the system's core
// security property. The harness mirrors every value with ground-truth
// *provenance* — the set of secrecy tags whose data influenced it — and
// lets random region code copy values between labeled objects, declassify
// through CopyAndLabel, and write to an unlabeled sink. The invariant:
//
//	any provenance tag on a value observed in the unlabeled sink must
//	have been authorized by a CopyAndLabel under a held minus capability.
//
// The runtime never sees the provenance; if its label checks are sound,
// the invariant holds no matter what the random program does.

// tracked pairs a payload with its ground-truth provenance.
type tracked struct {
	payload    int
	provenance difc.Label
}

func TestSoundnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		runSoundnessTrial(t, rng, trial)
	}
}

func runSoundnessTrial(t *testing.T, rng *rand.Rand, trial int) {
	_, main := newVM(t)
	const nTags = 3
	const nObjs = 6

	tags := make([]difc.Tag, nTags)
	for i := range tags {
		tag, err := main.CreateTag()
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tag
	}
	// Drop some minus capabilities permanently: those tags can never be
	// declassified in this trial.
	declassifiable := map[difc.Tag]bool{}
	for i, tag := range tags {
		if rng.Intn(2) == 0 {
			if err := main.DropCapability(tag, difc.CapMinus); err != nil {
				t.Fatal(err)
			}
		} else {
			declassifiable[tag] = true
		}
		_ = i
	}

	// Labeled objects with random single- or double-tag labels, each
	// seeded with a secret whose provenance is the object's label.
	objs := make([]*Object, nObjs)
	objLabels := make([]difc.Label, nObjs)
	for i := range objs {
		l := difc.NewLabel(tags[rng.Intn(nTags)])
		if rng.Intn(3) == 0 {
			l = l.Add(tags[rng.Intn(nTags)])
		}
		objLabels[i] = l
		err := main.Secure(difc.Labels{S: l}, difc.EmptyCapSet, func(r *Region) {
			o := r.Alloc(nil)
			r.Set(o, "v", tracked{payload: i * 100, provenance: l})
			objs[i] = o
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	sink := NewObject() // the unlabeled world
	sinkWrites := []tracked{}

	// Random operation stream.
	for op := 0; op < 120; op++ {
		switch rng.Intn(3) {
		case 0:
			// Copy src into dst inside a region carrying dst's label.
			// Legal exactly when src's label ⊆ dst's: the region can
			// then read src and write dst. Otherwise the read barrier
			// must refuse (src is above the region).
			src, dst := rng.Intn(nObjs), rng.Intn(nObjs)
			legal := objLabels[src].SubsetOf(objLabels[dst])
			violated := false
			main.Secure(difc.Labels{S: objLabels[dst]}, difc.EmptyCapSet, func(r *Region) {
				v := r.Get(objs[src], "v").(tracked)
				w := r.Get(objs[dst], "v").(tracked)
				merged := tracked{
					payload:    v.payload + w.payload,
					provenance: v.provenance.Union(w.provenance),
				}
				r.Set(objs[dst], "v", merged)
			}, func(r *Region, e any) { violated = true })
			if legal && violated {
				t.Fatalf("trial %d op %d: legal copy refused", trial, op)
			}
			if !legal && !violated {
				t.Fatalf("trial %d op %d: illegal copy permitted", trial, op)
			}
		case 1:
			// Attempt to declassify a random object's value to the sink
			// via CopyAndLabel in a nested empty region, holding
			// whatever minus capabilities the thread still has. The
			// runtime decides; on success the harness records the write.
			src := rng.Intn(nObjs)
			l := objLabels[src]
			main.Secure(difc.Labels{S: l}, main.caps, func(r *Region) {
				v := r.Get(objs[src], "v").(tracked)
				err := main.Secure(difc.Labels{}, r.caps, func(r2 *Region) {
					cp := r2.CopyAndLabel(objs[src], difc.Labels{})
					got := r2.Get(cp, "v").(tracked)
					r2.Set(sink, fmt.Sprintf("w%d", len(sinkWrites)), got)
					sinkWrites = append(sinkWrites, got)
				}, nil)
				_ = err // entry failure = declassification refused: fine
				_ = v
			}, func(r *Region, e any) {
				t.Fatalf("trial %d op %d: unexpected violation: %v", trial, op, e)
			})
		case 2:
			// Direct leak attempt: write a labeled value straight to the
			// sink from inside the labeled region. Must always violate
			// (and the harness must not record it).
			src := rng.Intn(nObjs)
			violated := false
			main.Secure(difc.Labels{S: objLabels[src]}, difc.EmptyCapSet, func(r *Region) {
				v := r.Get(objs[src], "v").(tracked)
				r.Set(sink, "leak", v)
			}, func(r *Region, e any) { violated = true })
			if !violated {
				t.Fatalf("trial %d op %d: direct leak not stopped", trial, op)
			}
			if sink.RawGet("leak") != nil {
				t.Fatalf("trial %d op %d: leak value reached the sink", trial, op)
			}
		}
	}

	// The invariant: every tag in every sink write's provenance was
	// declassifiable (its minus capability was held).
	for i, w := range sinkWrites {
		for _, tag := range w.provenance.Tags() {
			if !declassifiable[tag] {
				t.Fatalf("trial %d: sink write %d carries provenance %v but %v was never declassifiable",
					trial, i, w.provenance, tag)
			}
		}
	}
}
