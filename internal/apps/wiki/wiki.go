// Package wiki is a comparative study shaped after the application Flume
// was evaluated on (MoinMoin wiki, §6.2): a multi-user wiki where each
// user's private pages carry the user's secrecy tag. It implements the
// same wiki twice —
//
//   - LaminarWiki: one server process; each request runs in a security
//     region with the page's label on a per-user thread, so differently
//     labeled pages are served concurrently from one address space;
//
//   - FlumeWiki: a process-granularity monitor; the worker process must
//     relabel itself around every private-page request (two label
//     changes per request through the monitor), because the label
//     applies to the whole address space.
//
// The functional gap (heterogeneous labels) and the cost gap (monitor
// round trips per request) are both measurable; see wiki_test.go and the
// WikiCompare benchmark.
package wiki

import (
	"fmt"
	"sync"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/flume"
	"laminar/internal/simwork"
)

// renderWork models page rendering (markup → HTML), identical in both
// implementations.
const renderWork = 5000

// ErrDenied reports an access rejection.
var ErrDenied = fmt.Errorf("wiki: access denied")

// --- Laminar implementation ---

// LaminarWiki is the region-based wiki server.
type LaminarWiki struct {
	vm   *laminar.VM
	main *laminar.Thread

	mu    sync.Mutex
	users map[string]*wikiUser
	pages map[string]*wikiPage
}

type wikiUser struct {
	tag    laminar.Tag
	thread *laminar.Thread
}

type wikiPage struct {
	owner   string // "" = public
	content *laminar.Object
}

// NewLaminar boots the wiki server.
func NewLaminar(sys *laminar.System) (*LaminarWiki, error) {
	shell, err := sys.Login("wikid")
	if err != nil {
		return nil, err
	}
	vm, main, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	return &LaminarWiki{
		vm: vm, main: main,
		users: make(map[string]*wikiUser),
		pages: make(map[string]*wikiPage),
	}, nil
}

// VM exposes the runtime for statistics.
func (w *LaminarWiki) VM() *laminar.VM { return w.vm }

// Register adds a user with a fresh private tag and a dedicated handler
// thread holding only that user's plus capability.
func (w *LaminarWiki) Register(name string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.users[name]; dup {
		return fmt.Errorf("wiki: user %q exists", name)
	}
	tag, err := w.main.CreateTag()
	if err != nil {
		return err
	}
	th, err := w.main.Fork([]laminar.Capability{{Tag: tag, Kind: laminar.CapPlus}})
	if err != nil {
		return err
	}
	w.users[name] = &wikiUser{tag: tag, thread: th}
	return nil
}

// Put creates or replaces a page. Private pages (owner != "") are labeled
// with the owner's tag and written from the owner's region.
func (w *LaminarWiki) Put(owner, title, text string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	pg := &wikiPage{owner: owner}
	if owner == "" {
		pg.content = laminar.NewObject()
		pg.content.RawSet("text", text)
		w.pages[title] = pg
		return nil
	}
	u, ok := w.users[owner]
	if !ok {
		return fmt.Errorf("wiki: no user %q", owner)
	}
	labels := laminar.Labels{S: laminar.NewLabel(u.tag)}
	err := u.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		pg.content = r.Alloc(nil)
		r.Set(pg.content, "text", text)
	}, nil)
	if err != nil {
		return err
	}
	w.pages[title] = pg
	return nil
}

// Get serves a page to the requesting user: public pages render outside
// regions; private pages render inside a region with the owner's label on
// the requesting user's thread, which only works for the owner (the
// thread holds no other plus capabilities).
func (w *LaminarWiki) Get(requester, title string) (string, error) {
	w.mu.Lock()
	pg, ok := w.pages[title]
	u, uok := w.users[requester]
	w.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("wiki: no page %q", title)
	}
	if !uok {
		return "", fmt.Errorf("wiki: no user %q", requester)
	}
	if pg.owner == "" {
		simwork.Do(renderWork)
		return render(title, pg.content.RawGet("text").(string)), nil
	}
	w.mu.Lock()
	ownerTag := w.users[pg.owner].tag
	w.mu.Unlock()
	labels := laminar.Labels{S: laminar.NewLabel(ownerTag)}
	var out string
	violated := false
	err := u.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		text := r.Get(pg.content, "text").(string)
		simwork.Do(renderWork)
		out = render(title, text)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return "", ErrDenied
	}
	// The rendered result carries the owner's taint; it is returned on
	// the owner's own channel (their thread produced it inside the
	// region), so handing the string back to the owner is the in-label
	// delivery. A non-owner never reaches this point.
	return out, nil
}

func render(title, text string) string {
	return "<h1>" + title + "</h1><p>" + text + "</p>"
}

// --- Flume-style implementation ---

// FlumeWiki serves the same content through a process-granularity
// reference monitor: one worker process whose whole-address-space label
// must match the page being served.
type FlumeWiki struct {
	mon    *flume.Monitor
	worker *flume.Proc

	mu    sync.Mutex
	users map[string]difc.Tag
	pages map[string]*flumePage
}

type flumePage struct {
	title string
	owner string
	text  string
	label difc.Labels
}

// NewFlume boots the monitor-based wiki.
func NewFlume() *FlumeWiki {
	mon := flume.NewMonitor()
	return &FlumeWiki{
		mon:    mon,
		worker: mon.Spawn(),
		users:  make(map[string]difc.Tag),
		pages:  make(map[string]*flumePage),
	}
}

// Syscalls reports monitor round trips so far.
func (w *FlumeWiki) Syscalls() uint64 { return w.mon.Syscalls }

// Register creates the user's tag; the worker (as the trusted app) owns
// all tags, mirroring a Flume application holding its users' tags.
func (w *FlumeWiki) Register(name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.users[name] = w.mon.CreateTag(w.worker)
}

// Put stores a page with the owner's label.
func (w *FlumeWiki) Put(owner, title, text string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	pg := &flumePage{title: title, owner: owner, text: text}
	if owner != "" {
		tag, ok := w.users[owner]
		if !ok {
			return fmt.Errorf("wiki: no user %q", owner)
		}
		pg.label = difc.Labels{S: difc.NewLabel(tag)}
	}
	w.pages[title] = pg
	return nil
}

// Get serves a page: for private pages the whole worker process raises
// its label, reads, renders, and must drop the label again before the
// next request — two extra monitor calls per request, and no concurrent
// requests at different labels in this process.
func (w *FlumeWiki) Get(requester, title string) (string, error) {
	w.mu.Lock()
	pg, ok := w.pages[title]
	reqTag, uok := w.users[requester]
	w.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("wiki: no page %q", title)
	}
	if !uok {
		return "", fmt.Errorf("wiki: no user %q", requester)
	}
	if pg.owner == "" {
		simwork.Do(renderWork)
		return render(pg.title, pg.text), nil
	}
	// Policy: only the owner may fetch a private page. The monitor
	// enforces it structurally: the response must flow to the requester,
	// so the worker checks that the page label is within the requester's
	// label (their own tag).
	if !pg.label.S.SubsetOf(difc.NewLabel(reqTag)) {
		return "", ErrDenied
	}
	// Raise the whole process to the page's label...
	if err := w.mon.SetLabel(w.worker, 0, pg.label.S); err != nil {
		return "", err
	}
	if err := w.mon.ReadData(w.worker, pg.label); err != nil {
		w.mon.SetLabel(w.worker, 0, difc.EmptyLabel)
		return "", err
	}
	simwork.Do(renderWork)
	out := render(pg.title, pg.text)
	// ...deliver to the requester's endpoint (same label, legal), then
	// drop the label for the next request.
	if err := w.mon.WriteData(w.worker, pg.label); err != nil {
		return "", err
	}
	if err := w.mon.SetLabel(w.worker, 0, difc.EmptyLabel); err != nil {
		return "", err
	}
	return out, nil
}
