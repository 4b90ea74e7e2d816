// Package battleship is the second Laminar case study (§7.2), modeled on
// JavaBattle: each player allocates a secrecy tag, labels her board and
// ship placement with it, and never shares the declassification
// capability. A shot is sent to the opponent as plain coordinates; the
// opponent updates his own board inside a security region and declassifies
// only the hit/miss bit — the single bit of information the game reveals
// per round. The two boards live in one address space with different
// labels, the heterogeneous-labeling pattern impossible for
// process-granularity DIFC systems (§7.5).
package battleship

import (
	"fmt"
	"math/rand"

	"laminar"
	"laminar/internal/rt"
	"laminar/internal/simwork"
)

// shotExchangeWork models the per-shot message encode/send/decode and
// display update the real game performs, identical in both variants.
const shotExchangeWork = 1500

// Cell states in a board array.
const (
	cellEmpty = 0
	cellShip  = 1
	cellHit   = 2
	cellMiss  = 3
)

// GridSize matches the paper's experiment: a 15×15 grid.
const GridSize = 15

// Ships placed per player (length × count roughly like the classic game).
var shipLengths = []int{5, 4, 3, 3, 2}

// Player owns a labeled board.
type Player struct {
	name   string
	thread *laminar.Thread
	tag    laminar.Tag
	board  *laminar.Object // labeled {S(tag)}, GridSize² cells
	cells  int             // remaining un-hit ship cells

	// labels and caps are built once — labels are immutable, so the
	// per-shot region entry reuses them (as a real program would).
	labels laminar.Labels
	caps   laminar.CapSet
	empty  laminar.Labels
}

// Name returns the player's name.
func (p *Player) Name() string { return p.name }

// ShipCellsLeft reports remaining ship cells (host-side counter maintained
// from declassified hits only — no labeled state escapes).
func (p *Player) ShipCellsLeft() int { return p.cells }

// VMStats exposes the runtime's dynamic-check counters for the evaluation
// harness.
func (p *Player) VMStats() *rt.Stats { return p.thread.VM().Stats() }

// Thread returns the player's principal thread (used by security probes).
func (p *Player) Thread() *laminar.Thread { return p.thread }

// newPlayer creates a player with a private tag and a labeled board with
// ships placed by the seeded rng.
func newPlayer(vm *laminar.VM, parent *laminar.Thread, name string, rng *rand.Rand) (*Player, error) {
	th, err := parent.Fork([]laminar.Capability{}) // no inherited caps
	if err != nil {
		return nil, err
	}
	tag, err := th.CreateTag()
	if err != nil {
		return nil, err
	}
	p := &Player{name: name, thread: th, tag: tag}
	p.labels = laminar.Labels{S: laminar.NewLabel(tag)}
	p.caps = laminar.NewCapSet(laminar.EmptyLabel, laminar.NewLabel(tag))
	labels := p.labels
	placed := 0
	err = th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		p.board = r.AllocArray(GridSize*GridSize, nil)
		for i := 0; i < GridSize*GridSize; i++ {
			r.SetIndex(p.board, i, cellEmpty)
		}
		for _, length := range shipLengths {
			placed += placeShip(r, p.board, rng, length)
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	p.cells = placed
	return p, nil
}

// placeShip drops one ship of the given length at a random position and
// orientation, retrying on collision; returns cells occupied.
func placeShip(r *laminar.Region, board *laminar.Object, rng *rand.Rand, length int) int {
	for {
		horizontal := rng.Intn(2) == 0
		x, y := rng.Intn(GridSize), rng.Intn(GridSize)
		dx, dy := 1, 0
		if !horizontal {
			dx, dy = 0, 1
		}
		if x+dx*(length-1) >= GridSize || y+dy*(length-1) >= GridSize {
			continue
		}
		ok := true
		for k := 0; k < length; k++ {
			if r.Index(board, (y+dy*k)*GridSize+(x+dx*k)).(int) != cellEmpty {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k := 0; k < length; k++ {
			r.SetIndex(board, (y+dy*k)*GridSize+(x+dx*k), cellShip)
		}
		return length
	}
}

// processShot handles an incoming shot at (x, y): the board update runs in
// the owner's security region, and only the hit/miss result is
// declassified (via copyAndLabel in a nested empty region, using the
// owner's minus capability).
func (p *Player) processShot(x, y int) (bool, error) {
	if x < 0 || y < 0 || x >= GridSize || y >= GridSize {
		return false, fmt.Errorf("battleship: shot (%d,%d) out of range", x, y)
	}
	simwork.Do(shotExchangeWork)
	result := laminar.NewObject()
	violated := false
	err := p.thread.Secure(p.labels, p.caps, func(r *laminar.Region) {
		idx := y*GridSize + x
		cur := r.Index(p.board, idx).(int)
		hit := 0
		switch cur {
		case cellShip:
			r.SetIndex(p.board, idx, cellHit)
			hit = 1
		case cellEmpty:
			r.SetIndex(p.board, idx, cellMiss)
		}
		// Declassify just the bit: the opponent learns hit-or-miss and
		// nothing else about the board.
		agg := r.Alloc(nil)
		r.Set(agg, "hit", hit)
		err := p.thread.Secure(p.empty, p.caps, func(r2 *laminar.Region) {
			pub := r2.CopyAndLabel(agg, laminar.Labels{})
			result.RawSet("hit", r2.Get(pub, "hit"))
		}, nil)
		if err != nil {
			panic(err)
		}
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return false, fmt.Errorf("battleship: shot processing denied")
	}
	hit := result.RawGet("hit").(int) == 1
	if hit {
		p.cells--
	}
	return hit, nil
}

// TryPeek probes the security property: the opponent attempts to read the
// player's board directly. It reports whether any access succeeded (it
// must not).
func (p *Player) TryPeek(intruder *laminar.Thread) bool {
	leaked := false
	// Entering a region with the victim's tag fails (no capability) …
	err := intruder.Secure(laminar.Labels{S: laminar.NewLabel(p.tag)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		leaked = true
	}, nil)
	if err == nil && leaked {
		return true
	}
	// … and so does touching the board from outside a region.
	func() {
		defer func() { recover() }()
		intruder.Index(p.board, 0)
		leaked = true
	}()
	return leaked
}

// Game drives two players to completion with a deterministic shooter.
type Game struct {
	A, B *Player
	rng  *rand.Rand
}

// NewGame builds a secured two-player game on one VM.
func NewGame(sys *laminar.System, seed int64) (*Game, error) {
	shell, err := sys.Login("arena")
	if err != nil {
		return nil, err
	}
	vm, main, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	a, err := newPlayer(vm, main, "alice", rng)
	if err != nil {
		return nil, err
	}
	b, err := newPlayer(vm, main, "bob", rng)
	if err != nil {
		return nil, err
	}
	return &Game{A: a, B: b, rng: rng}, nil
}

// Play runs rounds until one player is sunk (or the board is exhausted)
// and returns the winner. Each player shoots cells in a random untried
// order.
func (g *Game) Play() (*Player, error) {
	orderA := g.rng.Perm(GridSize * GridSize)
	orderB := g.rng.Perm(GridSize * GridSize)
	for turn := 0; turn < GridSize*GridSize; turn++ {
		// A shoots at B.
		idx := orderA[turn]
		if _, err := g.B.processShot(idx%GridSize, idx/GridSize); err != nil {
			return nil, err
		}
		if g.B.cells == 0 {
			return g.A, nil
		}
		// B shoots at A.
		idx = orderB[turn]
		if _, err := g.A.processShot(idx%GridSize, idx/GridSize); err != nil {
			return nil, err
		}
		if g.A.cells == 0 {
			return g.B, nil
		}
	}
	return nil, fmt.Errorf("battleship: no winner after full sweep")
}

// --- unsecured variant (the original JavaBattle structure) ---

// UnsecuredPlayer keeps its board as a plain object; opponents inspect the
// coordinates directly to determine hits, as the original program did.
type UnsecuredPlayer struct {
	board *laminar.Object
	cells int
}

// newUnsecuredPlayer places ships on an unlabeled board.
func newUnsecuredPlayer(rng *rand.Rand) *UnsecuredPlayer {
	p := &UnsecuredPlayer{board: laminar.NewArray(GridSize * GridSize)}
	for i := 0; i < GridSize*GridSize; i++ {
		p.board.RawSetIndex(i, cellEmpty)
	}
	for _, length := range shipLengths {
		p.cells += placeShipRaw(p.board, rng, length)
	}
	return p
}

func placeShipRaw(board *laminar.Object, rng *rand.Rand, length int) int {
	for {
		horizontal := rng.Intn(2) == 0
		x, y := rng.Intn(GridSize), rng.Intn(GridSize)
		dx, dy := 1, 0
		if !horizontal {
			dx, dy = 0, 1
		}
		if x+dx*(length-1) >= GridSize || y+dy*(length-1) >= GridSize {
			continue
		}
		ok := true
		for k := 0; k < length; k++ {
			if board.RawIndex((y+dy*k)*GridSize+(x+dx*k)).(int) != cellEmpty {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k := 0; k < length; k++ {
			board.RawSetIndex((y+dy*k)*GridSize+(x+dx*k), cellShip)
		}
		return length
	}
}

// processShot mutates the board directly, no regions.
func (p *UnsecuredPlayer) processShot(x, y int) bool {
	simwork.Do(shotExchangeWork)
	idx := y*GridSize + x
	if p.board.RawIndex(idx).(int) == cellShip {
		p.board.RawSetIndex(idx, cellHit)
		p.cells--
		return true
	}
	p.board.RawSetIndex(idx, cellMiss)
	return false
}

// UnsecuredGame mirrors Game without DIFC.
type UnsecuredGame struct {
	A, B *UnsecuredPlayer
	rng  *rand.Rand
}

// NewUnsecuredGame builds the baseline game.
func NewUnsecuredGame(seed int64) *UnsecuredGame {
	rng := rand.New(rand.NewSource(seed))
	return &UnsecuredGame{
		A:   newUnsecuredPlayer(rng),
		B:   newUnsecuredPlayer(rng),
		rng: rng,
	}
}

// Play runs the baseline game to completion.
func (g *UnsecuredGame) Play() *UnsecuredPlayer {
	orderA := g.rng.Perm(GridSize * GridSize)
	orderB := g.rng.Perm(GridSize * GridSize)
	for turn := 0; turn < GridSize*GridSize; turn++ {
		idx := orderA[turn]
		g.B.processShot(idx%GridSize, idx/GridSize)
		if g.B.cells == 0 {
			return g.A
		}
		idx = orderB[turn]
		g.A.processShot(idx%GridSize, idx/GridSize)
		if g.A.cells == 0 {
			return g.B
		}
	}
	return nil
}
