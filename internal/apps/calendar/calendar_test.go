package calendar

import (
	"errors"
	"strings"
	"testing"

	"laminar"
)

func TestScheduleMeeting(t *testing.T) {
	s, err := New(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	// Alice busy on even slots, Bob on multiples of 3: the first common
	// free slot is 1 (a free: odd; b free: not multiple of 3).
	day, err := s.ScheduleMeeting()
	if err != nil {
		t.Fatal(err)
	}
	if day != 1 {
		t.Errorf("first slot = %d, want 1", day)
	}
	// The slot is now busy for Alice; next pick differs.
	day2, err := s.ScheduleMeeting()
	if err != nil {
		t.Fatal(err)
	}
	if day2 == day {
		t.Errorf("second slot = %d, same as first", day2)
	}
}

func TestMeetingsReachAliceOnly(t *testing.T) {
	s, err := New(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.ScheduleMeeting(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.ReadMeetingsAsAlice()
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(out)) != 3 {
		t.Errorf("meetings file = %q, want 3 entries", out)
	}
	if !s.BobCannotReadMeetings() {
		t.Error("Bob read Alice's meetings file")
	}
}

func TestScheduleExhaustionAndReset(t *testing.T) {
	s, err := New(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	scheduled := 0
	for {
		_, err := s.ScheduleMeeting()
		if errors.Is(err, ErrNoSlot) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scheduled++
		if scheduled > Slots {
			t.Fatal("scheduled more meetings than slots")
		}
	}
	if scheduled == 0 {
		t.Fatal("no meetings scheduled before exhaustion")
	}
	if err := s.ResetAlice(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScheduleMeeting(); err != nil {
		t.Errorf("schedule after reset = %v", err)
	}
}

func TestSecuredMatchesUnsecuredSlots(t *testing.T) {
	sys := laminar.NewSystem()
	s, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnsecured(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, err1 := s.ScheduleMeeting()
		b, err2 := u.ScheduleMeeting()
		if err1 != nil || err2 != nil {
			t.Fatalf("iteration %d: %v / %v", i, err1, err2)
		}
		if a != b {
			t.Errorf("iteration %d: secured slot %d, unsecured %d", i, a, b)
		}
	}
}

func TestSchedulerCannotDeclassifyAlice(t *testing.T) {
	// The scheduler holds b− but not a−: writing the meeting date to an
	// UNLABELED destination would need a− and must fail.
	s, err := New(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Alice.tag, s.Bob.tag
	both := laminar.Labels{S: laminar.NewLabel(a, b)}
	bMinus := laminar.NewCapSet(laminar.EmptyLabel, laminar.NewLabel(b))
	escaped := false
	err = s.thread.Secure(both, bMinus, func(r *laminar.Region) {
		res := r.Alloc(nil)
		r.Set(res, "slot", 1)
		// Attempt full declassification: requires a− too.
		err := s.thread.Secure(laminar.Labels{}, bMinus, func(r2 *laminar.Region) {
			escaped = true
		}, nil)
		if err == nil {
			escaped = true
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if escaped {
		t.Error("scheduler declassified Alice's data without a−")
	}
}

func TestConcurrentLoadersUsedHeterogeneousLabels(t *testing.T) {
	sys := laminar.NewSystem()
	s, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	// The two calendars were loaded into objects with different labels in
	// the same address space.
	if s.calA.Labels().Equal(s.calB.Labels()) {
		t.Error("calendars share a label")
	}
	if s.calA.Labels().S.IsEmpty() || s.calB.Labels().S.IsEmpty() {
		t.Error("calendars not labeled")
	}
}

func TestUnsecuredResetAndAccessors(t *testing.T) {
	sys := laminar.NewSystem()
	s, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	if s.VM() == nil {
		t.Error("VM() nil")
	}
	if s.Alice.Tag() == s.Bob.Tag() {
		t.Error("users share a tag")
	}
	u, err := NewUnsecured(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := u.ScheduleMeeting(); errors.Is(err, ErrNoSlot) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	u.ResetAlice()
	if _, err := u.ScheduleMeeting(); err != nil {
		t.Errorf("schedule after unsecured reset = %v", err)
	}
}
