package pagelabel

import (
	"testing"

	"laminar/internal/difc"
)

func TestAllocSharesPagesPerLabel(t *testing.T) {
	h := NewHeap()
	l := difc.Labels{S: difc.NewLabel(1)}
	for i := 0; i < 8; i++ {
		if err := h.Alloc(64, l); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.Pages != 1 {
		t.Errorf("pages = %d, want 1 (same-label objects share)", st.Pages)
	}
}

func TestAllocSeparatesLabels(t *testing.T) {
	h := NewHeap()
	// 16 distinct labels, one tiny object each: 16 pages.
	for i := 1; i <= 16; i++ {
		l := difc.Labels{S: difc.NewLabel(difc.Tag(i))}
		if err := h.Alloc(16, l); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.Pages != 16 {
		t.Errorf("pages = %d, want one per distinct label set (16)", st.Pages)
	}
	if st.BytesWasted != 16*(PageSize-16) {
		t.Errorf("wasted = %d", st.BytesWasted)
	}
}

func TestPageOverflowOpensNewPage(t *testing.T) {
	h := NewHeap()
	l := difc.Labels{}
	if err := h.Alloc(PageSize, l); err != nil {
		t.Fatal(err)
	}
	if err := h.Alloc(1, l); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Pages != 2 {
		t.Errorf("pages = %d, want 2", st.Pages)
	}
}

func TestAllocBadSize(t *testing.T) {
	h := NewHeap()
	if err := h.Alloc(0, difc.Labels{}); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if err := h.Alloc(PageSize+1, difc.Labels{}); err == nil {
		t.Error("oversized alloc accepted")
	}
}

func TestAccessChecks(t *testing.T) {
	h := NewHeap()
	secret := difc.Labels{S: difc.NewLabel(9)}
	if err := h.Alloc(32, secret); err != nil {
		t.Fatal(err)
	}
	o := h.pages[0]
	if !o.labels.Equal(secret) {
		t.Errorf("labels = %v", o.labels)
	}
	// The page's label governs access: an unlabeled thread cannot read
	// the object and may write it (up); a labeled thread reads it and
	// cannot write an unlabeled page.
	if err := difc.CheckFlow("read", o.labels, difc.Labels{}); err == nil {
		t.Error("unlabeled read allowed")
	}
	if err := difc.CheckFlow("write", difc.Labels{}, o.labels); err != nil {
		t.Errorf("write up = %v", err)
	}
	if err := difc.CheckFlow("read", o.labels, secret); err != nil {
		t.Errorf("labeled read = %v", err)
	}
	h.Alloc(32, difc.Labels{})
	if err := difc.CheckFlow("write", secret, h.pages[1].labels); err == nil {
		t.Error("tainted write down allowed")
	}
}
