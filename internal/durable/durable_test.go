package durable

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

var testMagic = [4]byte{'T', 'S', 'T', '1'}

func seal(payload []byte) []byte {
	return Seal(append(Begin(testMagic, len(payload)), payload...))
}

// FuzzOpen: Open never panics, opens every sealed record to exactly its
// payload, and rejects every strict prefix of one — the shape a torn
// write leaves behind.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("payload"))
	f.Add(seal([]byte("payload")))
	f.Add([]byte{'T', 'S', 'T', '1', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Open(testMagic, data)
		rec := seal(data)
		got, err := Open(testMagic, rec)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Open(Seal(%x)) = %x, %v", data, got, err)
		}
		for n := 0; n < len(rec); n++ {
			if _, err := Open(testMagic, rec[:n]); err == nil {
				t.Fatalf("prefix %d of %d bytes opened", n, len(rec))
			}
		}
	})
}

func TestOpenRejectsForeignMagic(t *testing.T) {
	rec := seal([]byte("x"))
	if _, err := Open([4]byte{'T', 'S', 'T', '2'}, rec); err == nil {
		t.Fatal("record opened under another magic")
	}
	rec[4] ^= 1
	if _, err := Open(testMagic, rec); err == nil {
		t.Fatal("record with a flipped payload bit opened")
	}
}

var testSites = Sites{Shadow: "t.shadow", Commit: "t.commit", Clear: "t.clear"}

var errInjected = errors.New("injected")

func noFault(string) error { return nil }

// TestWriteTearsEachStepAndRecoverClassifies faults each step of Write
// over a committed older record and checks the state recovery reaches:
// a torn shadow keeps the old commit, a torn commit rolls the shadow
// forward, a missed clear is clean.
func TestWriteTearsEachStepAndRecoverClassifies(t *testing.T) {
	old, next := []byte("old"), []byte("new")
	for _, c := range []struct {
		site      string
		wantState string
		want      []byte
	}{
		{"", Clean, next},
		{testSites.Shadow, Clean, old},
		{testSites.Commit, RolledForward, next},
		{testSites.Clear, Clean, next},
	} {
		s := NewMemStore()
		if err := Write(s, "k", "k"+ShadowSuffix, seal(old), testSites, noFault); err != nil {
			t.Fatal(err)
		}
		var consulted []string
		err := Write(s, "k", "k"+ShadowSuffix, seal(next), testSites, func(site string) error {
			consulted = append(consulted, site)
			if site == c.site {
				return errInjected
			}
			return nil
		})
		if (c.site != "") != errors.Is(err, errInjected) {
			t.Fatalf("fault at %q: Write = %v", c.site, err)
		}
		if want := []string{testSites.Shadow, testSites.Commit, testSites.Clear}; c.site == "" &&
			!reflect.DeepEqual(consulted, want) {
			t.Fatalf("consult order %v, want %v", consulted, want)
		}
		got, state := Recover(s, testMagic, "k", "k"+ShadowSuffix)
		if state != c.wantState || !bytes.Equal(got, c.want) {
			t.Errorf("fault at %q: Recover = %q, %s; want %q, %s", c.site, got, state, c.want, c.wantState)
		}
		if keys := s.Keys(); !reflect.DeepEqual(keys, []string{"k"}) {
			t.Errorf("fault at %q: keys after recovery = %v, want [k]", c.site, keys)
		}
	}
}

func TestRecoverQuarantinesAndAbsent(t *testing.T) {
	s := NewMemStore()
	rec := seal([]byte("payload"))
	s.Set("k", rec[:len(rec)/2])
	s.Set("k"+ShadowSuffix, rec[:3])
	if p, state := Recover(s, testMagic, "k", "k"+ShadowSuffix); state != Quarantined || p != nil {
		t.Fatalf("both torn: Recover = %q, %s; want nil, %s", p, state, Quarantined)
	}
	if keys := s.Keys(); len(keys) != 0 {
		t.Fatalf("quarantine left %v behind", keys)
	}
	if p, state := Recover(s, testMagic, "k", "k"+ShadowSuffix); state != Absent || p != nil {
		t.Fatalf("no records: Recover = %q, %s; want nil, %s", p, state, Absent)
	}
}

func TestBaseKeysFindsOrphanShadows(t *testing.T) {
	s := NewMemStore()
	for _, k := range []string{"a/2", "a/1#shadow", "a/2#shadow", "b/1", "a/10"} {
		s.Set(k, nil)
	}
	if got, want := BaseKeys(s, "a/"), []string{"a/1", "a/10", "a/2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BaseKeys = %v, want %v", got, want)
	}
}
