// Package freecs is the fourth Laminar case study (§7.4), modeled on the
// FreeCS open-source chat server. The original enforces its policy with
// if..then role checks scattered through 47 command handlers; the Laminar
// port maps roles onto integrity labels and localizes enforcement in the
// Group and User state: a group's ban list is protected by two integrity
// tags — one for the VIP role and one for the group's superuser — so only
// a user holding the add capability for both can execute /ban. The
// authentication module hands users the right capabilities at login.
package freecs

import (
	"fmt"
	"sync"

	"laminar"
	"laminar/internal/simwork"
)

// Work quanta shared by both variants: the original server accepts a
// socket, authenticates and spawns a handler thread per connection, and
// every command crosses the network and the command parser.
const (
	connectionWork  = 25000
	threadSpawnWork = 10000 // unsecured variant's per-connection thread (the secured one pays a real fork)
	commandWork     = 30000
)

// Role is a chat privilege level from the original server.
type Role int

// Roles.
const (
	RoleGuest Role = iota
	RoleVIP
	RoleSuperuser // per-group; implies VIP in the original policy
)

// Server is the secured chat server: one VM, one thread per connected
// user, integrity-labeled group state.
type Server struct {
	sys    *laminar.System
	vm     *laminar.VM
	main   *laminar.Thread
	vipTag laminar.Tag

	mu     sync.Mutex
	groups map[string]*Group
	users  map[string]*ChatUser
}

// Group is a chat room whose sensitive properties are integrity-labeled.
type Group struct {
	suTag laminar.Tag

	// banList and members are arrays of user names; theme is a single
	// field object. banList: {I(vip, su)}; members and theme: {I(su)}.
	banList *laminar.Object
	members *laminar.Object
	theme   *laminar.Object

	// msgCount counts posted messages. Like the unsecured baseline, the
	// server keeps no history: nothing reads it back.
	msgCount int
	banCount int
	memCount int
}

// ChatUser is a connected principal.
type ChatUser struct {
	Name   string
	thread *laminar.Thread
}

// ErrDenied reports a policy rejection.
var ErrDenied = fmt.Errorf("freecs: permission denied")

// NewServer boots the secured chat server with one default group.
func NewServer(sys *laminar.System) (*Server, error) {
	shell, err := sys.Login("chatd")
	if err != nil {
		return nil, err
	}
	vm, main, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sys: sys, vm: vm, main: main,
		groups: make(map[string]*Group),
		users:  make(map[string]*ChatUser),
	}
	if s.vipTag, err = main.CreateTag(); err != nil {
		return nil, err
	}
	if _, err := s.createGroup("lobby"); err != nil {
		return nil, err
	}
	return s, nil
}

// VM exposes the runtime for statistics.
func (s *Server) VM() *laminar.VM { return s.vm }

// createGroup allocates a group with a fresh superuser tag and labeled
// state objects. Runs as the server principal, which holds all tags.
func (s *Server) createGroup(name string) (*Group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.groups[name]; dup {
		return nil, fmt.Errorf("freecs: group %q exists", name)
	}
	suTag, err := s.main.CreateTag()
	if err != nil {
		return nil, err
	}
	g := &Group{suTag: suTag}
	banLabels := laminar.Labels{I: laminar.NewLabel(s.vipTag, suTag)}
	suLabels := laminar.Labels{I: laminar.NewLabel(suTag)}
	err = s.main.Secure(banLabels, laminar.EmptyCapSet, func(r *laminar.Region) {
		g.banList = r.AllocArray(maxList, nil)
	}, nil)
	if err != nil {
		return nil, err
	}
	err = s.main.Secure(suLabels, laminar.EmptyCapSet, func(r *laminar.Region) {
		g.members = r.AllocArray(maxList, nil)
		g.theme = r.Alloc(nil)
		r.Set(g.theme, "text", "welcome")
	}, nil)
	if err != nil {
		return nil, err
	}
	s.groups[name] = g
	return g, nil
}

// maxList bounds the labeled name arrays.
const maxList = 8192

// Login is the authentication module: it admits a user and hands their
// thread exactly the capabilities their role warrants (§7.4: "we changed
// the authentication module to ensure that users are given the right
// capabilities when they log in").
func (s *Server) Login(name string, role Role, superuserOf ...string) (*ChatUser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.users[name]; dup {
		return nil, fmt.Errorf("freecs: user %q already connected", name)
	}
	// Non-nil and empty: guests inherit no capabilities at all (a nil
	// keep set would mean "inherit everything" at fork).
	keep := []laminar.Capability{}
	if role == RoleVIP || role == RoleSuperuser {
		keep = append(keep, laminar.Capability{Tag: s.vipTag, Kind: laminar.CapPlus})
	}
	if role == RoleSuperuser {
		for _, gname := range superuserOf {
			g, ok := s.groups[gname]
			if !ok {
				return nil, fmt.Errorf("freecs: no group %q", gname)
			}
			keep = append(keep, laminar.Capability{Tag: g.suTag, Kind: laminar.CapPlus})
		}
	}
	simwork.Do(connectionWork)
	th, err := s.main.Fork(keep)
	if err != nil {
		return nil, err
	}
	u := &ChatUser{Name: name, thread: th}
	s.users[name] = u
	return u, nil
}

// Logout disconnects the user.
func (s *Server) Logout(u *ChatUser) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u.thread.Exit()
	delete(s.users, u.Name)
}

// group looks up a group.
func (s *Server) group(name string) (*Group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[name]
	if !ok {
		return nil, fmt.Errorf("freecs: no group %q", name)
	}
	return g, nil
}

// isBanned reads the ban list inside an empty-label region (integrity
// labels restrict writers, not readers).
func (s *Server) isBanned(u *ChatUser, gname string) (bool, error) {
	g, err := s.group(gname)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	banned := false
	rerr := u.thread.Secure(laminar.Labels{}, laminar.EmptyCapSet, func(r *laminar.Region) {
		for i := 0; i < g.banCount; i++ {
			if r.Index(g.banList, i) == u.Name {
				banned = true
				return
			}
		}
	}, nil)
	return banned, rerr
}

// Say posts a message to the group unless the speaker is banned.
func (s *Server) Say(u *ChatUser, gname, text string) error {
	simwork.Do(commandWork)
	banned, err := s.isBanned(u, gname)
	if err != nil {
		return err
	}
	if banned {
		return ErrDenied
	}
	g, err := s.group(gname)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g.msgCount++
	return nil
}

// Messages returns the group's message count (host-side observability).
func (s *Server) Messages(gname string) int {
	g, err := s.group(gname)
	if err != nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return g.msgCount
}

// invite adds a user name to the group's member list; only the group's
// superuser can modify membership (the {I(su)} label enforces it — no
// if..then check anywhere).
func (s *Server) invite(u *ChatUser, gname, invitee string) error {
	simwork.Do(commandWork)
	g, err := s.group(gname)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := laminar.Labels{I: laminar.NewLabel(g.suTag)}
	violated := false
	err = u.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		r.SetIndex(g.members, g.memCount, invitee)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return ErrDenied
	}
	g.memCount++
	return nil
}

// Ban adds a user to the ban list; the region needs both the VIP and the
// group-superuser integrity tags, so only a VIP with superuser power on
// the group can execute it — the paper's exact policy.
func (s *Server) Ban(u *ChatUser, gname, target string) error {
	simwork.Do(commandWork)
	g, err := s.group(gname)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := laminar.Labels{I: laminar.NewLabel(s.vipTag, g.suTag)}
	violated := false
	err = u.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		r.SetIndex(g.banList, g.banCount, target)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return ErrDenied
	}
	g.banCount++
	return nil
}

// SetTheme changes the group theme (superuser only, via {I(su)}).
func (s *Server) SetTheme(u *ChatUser, gname, theme string) error {
	simwork.Do(commandWork)
	g, err := s.group(gname)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := laminar.Labels{I: laminar.NewLabel(g.suTag)}
	violated := false
	err = u.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		r.Set(g.theme, "text", theme)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return ErrDenied
	}
	return nil
}

// Theme reads the group theme inside an empty region.
func (s *Server) Theme(u *ChatUser, gname string) (string, error) {
	simwork.Do(commandWork)
	g, err := s.group(gname)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out string
	err = u.thread.Secure(laminar.Labels{}, laminar.EmptyCapSet, func(r *laminar.Region) {
		out = r.Get(g.theme, "text").(string)
	}, nil)
	return out, err
}

// --- unsecured variant: the original if..then authorization ---

// UnsecuredServer reproduces the original FreeCS policy checks.
type UnsecuredServer struct {
	mu     sync.Mutex
	groups map[string]*unsecGroup
}

type unsecGroup struct {
	banList map[string]bool
	supers  map[string]bool
}

// UnsecUser is an unsecured connection.
type UnsecUser struct {
	Name string
	Role Role
}

// NewUnsecuredServer boots the baseline with one group.
func NewUnsecuredServer() *UnsecuredServer {
	s := &UnsecuredServer{groups: make(map[string]*unsecGroup)}
	s.createGroup("lobby")
	return s
}

// createGroup adds a group.
func (s *UnsecuredServer) createGroup(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups[name] = &unsecGroup{
		banList: make(map[string]bool),
		supers:  make(map[string]bool),
	}
}

// grantSuperuser records superuser power (the original role table).
func (s *UnsecuredServer) grantSuperuser(gname, user string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.groups[gname]; ok {
		g.supers[user] = true
	}
}

// say posts unless banned.
func (s *UnsecuredServer) say(u *UnsecUser, gname, text string) error {
	simwork.Do(commandWork)
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[gname]
	if !ok {
		return fmt.Errorf("freecs: no group %q", gname)
	}
	if g.banList[u.Name] {
		return ErrDenied
	}
	return nil
}

// ban: original check — VIP with superuser power.
func (s *UnsecuredServer) ban(u *UnsecUser, gname, target string) error {
	simwork.Do(commandWork)
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[gname]
	if !ok {
		return fmt.Errorf("freecs: no group %q", gname)
	}
	if u.Role < RoleVIP || !g.supers[u.Name] {
		return ErrDenied
	}
	g.banList[target] = true
	return nil
}
