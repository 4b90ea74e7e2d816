package battleship

import (
	"testing"

	"laminar"
)

func TestGamePlaysToCompletion(t *testing.T) {
	g, err := NewGame(laminar.NewSystem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	winner, err := g.Play()
	if err != nil {
		t.Fatal(err)
	}
	if winner == nil {
		t.Fatal("no winner")
	}
	loser := g.A
	if winner == g.A {
		loser = g.B
	}
	if loser.ShipCellsLeft() != 0 {
		t.Errorf("loser has %d cells left", loser.ShipCellsLeft())
	}
	if winner.ShipCellsLeft() <= 0 {
		t.Errorf("winner has %d cells left", winner.ShipCellsLeft())
	}
}

func TestSecuredMatchesUnsecured(t *testing.T) {
	// With the same seed, the secured and unsecured games must play out
	// identically: the DIFC layer changes no game semantics.
	for seed := int64(1); seed <= 5; seed++ {
		g, err := NewGame(laminar.NewSystem(), seed)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := g.Play()
		if err != nil {
			t.Fatal(err)
		}
		u := NewUnsecuredGame(seed)
		uw := u.Play()
		if uw == nil {
			t.Fatal("unsecured game had no winner")
		}
		if (sw == g.A) != (uw == u.A) {
			t.Errorf("seed %d: secured winner %s, unsecured winner is A: %v", seed, sw.Name(), uw == u.A)
		}
	}
}

func TestOpponentCannotPeek(t *testing.T) {
	g, err := NewGame(laminar.NewSystem(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.A.TryPeek(g.B.thread) {
		t.Error("B peeked at A's board")
	}
	if g.B.TryPeek(g.A.thread) {
		t.Error("A peeked at B's board")
	}
}

func TestShotResultsDeclassifiedOnly(t *testing.T) {
	g, err := NewGame(laminar.NewSystem(), 9)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for y := 0; y < GridSize; y++ {
		for x := 0; x < GridSize; x++ {
			hit, err := g.B.processShot(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				hits++
			}
		}
	}
	want := 0
	for _, l := range shipLengths {
		want += l
	}
	if hits != want {
		t.Errorf("total hits = %d, want %d", hits, want)
	}
	if g.B.ShipCellsLeft() != 0 {
		t.Errorf("cells left = %d", g.B.ShipCellsLeft())
	}
}

func TestShotOutOfRange(t *testing.T) {
	g, err := NewGame(laminar.NewSystem(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.A.processShot(-1, 0); err == nil {
		t.Error("out-of-range shot accepted")
	}
	if _, err := g.A.processShot(0, GridSize); err == nil {
		t.Error("out-of-range shot accepted")
	}
}

func TestRegionTimeDominates(t *testing.T) {
	// Table 3: Battleship spends ~54% of its time in security regions —
	// nearly all work is board updates. Assert regions are actually hot.
	sys := laminar.NewSystem()
	g, err := NewGame(sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Play(); err != nil {
		t.Fatal(err)
	}
	// Every processed shot is two nested regions.
	// (Counting both players' setup regions too.)
	if g.A.thread.VM().Stats().RegionsEntered.Load() < 100 {
		t.Errorf("regions entered = %d", g.A.thread.VM().Stats().RegionsEntered.Load())
	}
}
