package freecs

import (
	"errors"
	"fmt"
	"testing"

	"laminar"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
)

// TestListenerShedsOverCapacity: connections beyond maxConns are closed at
// the door instead of queueing unbounded work for the pump.
func TestListenerShedsOverCapacity(t *testing.T) {
	sys := laminar.NewSystem()
	s, err := NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.ListenAndServe("busy")
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	clients := make([]*Client, 0, maxConns+extra)
	for i := 0; i < maxConns+extra; i++ {
		c, err := Dial(sys, "busy")
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	// Accepts are bounded per pump (maxAcceptPerPump), so draining the
	// connect flood takes several pumps even though no commands execute.
	for i := 0; i < (maxConns+extra)/maxAcceptPerPump+1; i++ {
		l.Pump()
	}
	if got := l.liveConns(); got != maxConns {
		t.Errorf("live connections = %d, want the %d cap", got, maxConns)
	}
	// The over-capacity connections were taken off the listen queue and
	// closed, not left queued.
	if _, err := l.k.Accept(s.main.Task(), "busy"); !errors.Is(err, kernel.ErrAgain) {
		t.Errorf("accept after the flood = %v, want EAGAIN: over-capacity connections left queued", err)
	}
	// The ones inside the cap still work.
	if got := roundTrip(t, l, clients[0], "LOGIN first guest"); got != "OK" {
		t.Errorf("login on in-cap connection = %q", got)
	}
}

// TestListenerBacksOffAndSheds: a connection whose receives keep failing
// hard (injected hook faults) is retried on a doubling Pump-call backoff
// and shed — with its user logged out — once the retry budget is spent.
func TestListenerBacksOffAndSheds(t *testing.T) {
	plan := faultinject.NewPlan(5)
	sys := laminar.NewSystemWithInjector(plan)
	s, err := NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.ListenAndServe("flaky")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sys, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	if got := roundTrip(t, l, c, "LOGIN mel guest"); got != "OK" {
		t.Fatalf("login = %q", got)
	}
	if len(s.users) != 1 {
		t.Fatalf("users = %d, want 1", len(s.users))
	}

	// Every server-side receive now faults hard.
	plan.SetRates("hook.FilePermission", faultinject.Rates{Error: 1})
	pumps := 0
	for l.liveConns() > 0 {
		l.Pump()
		pumps++
		if pumps > 64 {
			t.Fatalf("connection not shed after %d pumps (failures=%d)", pumps, l.conns[0].failures)
		}
	}
	plan.SetRates("hook.FilePermission", faultinject.Rates{})
	// Three failures with doubling backoff in between: fail, wait 2, fail,
	// wait 4, fail-and-shed = at least 1+2+1+4+1 pumps.
	if pumps < 8 {
		t.Errorf("connection shed after only %d pumps: backoff not engaged", pumps)
	}
	if len(s.users) != 0 {
		t.Errorf("users = %d after shed, want 0 (logged out)", len(s.users))
	}
}

// TestBackoffForCaps pins the deterministic backoff schedule and its cap.
func TestBackoffForCaps(t *testing.T) {
	for i, want := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256} {
		if got := backoffFor(i); got != want {
			t.Errorf("backoffFor(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestDialRetriesTransientConnectFaults: Dial retries over injected EIO on
// connect a bounded number of times, succeeding when a retry gets through
// and failing — with the spawned task cleaned up — when the budget is
// spent.
func TestDialRetriesTransientConnectFaults(t *testing.T) {
	plan := faultinject.NewPlan(11)
	sys := laminar.NewSystemWithInjector(plan)
	s, err := NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.ListenAndServe("retry")
	if err != nil {
		t.Fatal(err)
	}

	// Fault every connect: the bounded retry must give up with EIO.
	plan.SetRates("socket.connect", faultinject.Rates{Error: 1})
	if _, err := Dial(sys, "retry"); !errors.Is(err, kernel.ErrIO) {
		t.Fatalf("dial with connect always faulting = %v, want EIO", err)
	}

	// At a 50% rate some dials need retries; with 3 attempts each, a run
	// of them overwhelmingly succeeds. Determinism makes this exact: the
	// same seed always yields the same outcome sequence.
	plan.SetRates("socket.connect", faultinject.Rates{Error: 0.5})
	ok := 0
	for i := 0; i < 20; i++ {
		c, err := Dial(sys, "retry")
		if err != nil {
			continue
		}
		ok++
		if got := roundTrip(t, l, c, fmt.Sprintf("LOGIN u%d guest", i)); got != "OK" {
			t.Errorf("login after retried dial = %q", got)
		}
	}
	if ok < 15 {
		t.Errorf("only %d/20 dials succeeded with 3 attempts at 50%% fault rate", ok)
	}
}
