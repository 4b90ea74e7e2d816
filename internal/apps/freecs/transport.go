package freecs

import (
	"errors"
	"fmt"
	"strings"

	"laminar"
	"laminar/internal/kernel"
)

// Socket transport. The original FreeCS speaks a line protocol over TCP;
// here clients are separate kernel tasks connected through the simulated
// kernel's label-checked sockets, so the command bytes themselves travel
// under DIFC enforcement. The protocol:
//
//	LOGIN <name> <guest|vip|super> [group]
//	SAY <group> <text...>
//	BAN <group> <target>
//	INVITE <group> <user>
//	THEME <group> [text...]
//	QUIT
//
// Replies are "OK [data]" or "ERR <reason>". Everything is nonblocking —
// the simulated kernel never blocks a task — so the server runs as a pump
// the caller drives (Pump processes all pending work).

// Robustness limits. The transport assumes the kernel can fail any socket
// call (fault injection, dead peers): retries are bounded, backoff is a
// deterministic doubling counted in Pump calls (no wall clock, so chaos
// schedules replay exactly), and connections that keep failing — or that
// arrive beyond capacity — are shed rather than retried forever.
const (
	// maxConns bounds live connections; new accepts beyond it are closed
	// immediately (shed at the door).
	maxConns = 64
	// maxConnFailures sheds a connection after this many hard errors.
	maxConnFailures = 3
	// maxBackoffRounds caps the doubling: the longest wait is
	// 2^maxBackoffRounds Pump calls.
	maxBackoffRounds = 8
	// maxAcceptPerPump bounds accept work per Pump so one pump cannot be
	// monopolized by a connect flood.
	maxAcceptPerPump = 32
	// dialRetries bounds connect attempts from the client side.
	dialRetries = 3
)

// backoffFor returns the deterministic wait, in Pump calls, after the n-th
// consecutive failure: 2, 4, 8, ... capped at 2^maxBackoffRounds.
func backoffFor(failures int) int {
	if failures > maxBackoffRounds {
		failures = maxBackoffRounds
	}
	return 1 << failures
}

// Listener is the socket front end of a Server.
type Listener struct {
	srv  *Server
	name string
	k    *kernel.Kernel

	conns []*conn

	// acceptFailures/acceptWait implement backoff for the accept path.
	acceptFailures int
	acceptWait     int
}

type conn struct {
	fd     kernel.FD
	user   *ChatUser
	closed bool

	// failures counts consecutive hard errors on this connection; wait is
	// the remaining backoff in Pump calls before it is serviced again.
	failures int
	wait     int
}

// ListenAndServe registers the socket listener for the chat server.
func (s *Server) ListenAndServe(name string) (*Listener, error) {
	k := s.sys.Kernel()
	if err := k.Listen(s.main.Task(), name); err != nil {
		return nil, err
	}
	return &Listener{srv: s, name: name, k: k}, nil
}

// Pump accepts pending connections and processes one command per
// connection; it reports how many commands it executed. Call in a loop
// until it returns 0 to drain.
func (l *Listener) Pump() int {
	l.acceptPending()
	executed := 0
	for _, c := range l.conns {
		if c.closed {
			continue
		}
		if c.wait > 0 {
			c.wait--
			continue
		}
		buf := make([]byte, 1024)
		n, err := l.k.Recv(l.srv.main.Task(), c.fd, buf)
		if err != nil {
			if !errors.Is(err, kernel.ErrAgain) {
				// A hard error (dead peer, injected I/O fault): back off
				// deterministically, shed after the retry budget.
				l.connFailed(c)
			}
			continue
		}
		if n == 0 {
			continue
		}
		c.failures = 0
		for _, line := range strings.Split(strings.TrimSpace(string(buf[:n])), "\n") {
			reply := l.dispatch(c, line)
			if _, err := l.k.Send(l.srv.main.Task(), c.fd, []byte(reply+"\n")); err != nil {
				l.connFailed(c)
				break
			}
			executed++
		}
		if c.closed && c.fd >= 0 {
			// Voluntary QUIT: release the descriptor after the farewell.
			l.k.Close(l.srv.main.Task(), c.fd)
			c.fd = -1
		}
	}
	l.compact()
	return executed
}

// acceptPending drains the listen queue, bounded per pump and per the
// connection cap, with backoff after accept faults.
func (l *Listener) acceptPending() {
	if l.acceptWait > 0 {
		l.acceptWait--
		return
	}
	for i := 0; i < maxAcceptPerPump; i++ {
		fd, err := l.k.Accept(l.srv.main.Task(), l.name)
		if err != nil {
			if !errors.Is(err, kernel.ErrAgain) {
				l.acceptFailures++
				l.acceptWait = backoffFor(l.acceptFailures)
			}
			return
		}
		l.acceptFailures = 0
		if l.liveConns() >= maxConns {
			// Over capacity: shed at the door instead of queueing work the
			// pump can never catch up on.
			l.k.Close(l.srv.main.Task(), fd)
			continue
		}
		l.conns = append(l.conns, &conn{fd: fd})
	}
}

// connFailed records a hard error on the connection, backing off and
// shedding once the retry budget is spent.
func (l *Listener) connFailed(c *conn) {
	c.failures++
	if c.failures >= maxConnFailures {
		l.dropConn(c)
		return
	}
	c.wait = backoffFor(c.failures)
}

// dropConn closes and logs out a connection.
func (l *Listener) dropConn(c *conn) {
	if c.user != nil {
		l.srv.Logout(c.user)
		c.user = nil
	}
	if c.fd >= 0 {
		l.k.Close(l.srv.main.Task(), c.fd)
		c.fd = -1
	}
	c.closed = true
}

// compact removes closed connections from the slice.
func (l *Listener) compact() {
	live := l.conns[:0]
	for _, c := range l.conns {
		if !c.closed {
			live = append(live, c)
		}
	}
	for i := len(live); i < len(l.conns); i++ {
		l.conns[i] = nil
	}
	l.conns = live
}

func (l *Listener) liveConns() int {
	n := 0
	for _, c := range l.conns {
		if !c.closed {
			n++
		}
	}
	return n
}

// dispatch executes one protocol line for a connection.
func (l *Listener) dispatch(c *conn, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	cmd := strings.ToUpper(fields[0])
	if cmd == "LOGIN" {
		if c.user != nil {
			return "ERR already logged in"
		}
		if len(fields) < 3 {
			return "ERR LOGIN <name> <role> [group]"
		}
		role, ok := map[string]Role{"guest": RoleGuest, "vip": RoleVIP, "super": RoleSuperuser}[fields[2]]
		if !ok {
			return "ERR unknown role"
		}
		var groups []string
		if role == RoleSuperuser {
			groups = fields[3:]
		}
		u, err := l.srv.Login(fields[1], role, groups...)
		if err != nil {
			return "ERR " + err.Error()
		}
		c.user = u
		return "OK"
	}
	if c.user == nil {
		return "ERR login first"
	}
	switch cmd {
	case "SAY":
		if len(fields) < 3 {
			return "ERR SAY <group> <text>"
		}
		if err := l.srv.Say(c.user, fields[1], strings.Join(fields[2:], " ")); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "BAN":
		if len(fields) != 3 {
			return "ERR BAN <group> <target>"
		}
		if err := l.srv.Ban(c.user, fields[1], fields[2]); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "INVITE":
		if len(fields) != 3 {
			return "ERR INVITE <group> <user>"
		}
		if err := l.srv.invite(c.user, fields[1], fields[2]); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "THEME":
		if len(fields) == 2 {
			theme, err := l.srv.Theme(c.user, fields[1])
			if err != nil {
				return "ERR " + err.Error()
			}
			return "OK " + theme
		}
		if err := l.srv.SetTheme(c.user, fields[1], strings.Join(fields[2:], " ")); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "QUIT":
		l.srv.Logout(c.user)
		c.user = nil
		c.closed = true // fd closed by Pump after the farewell is sent
		return "OK bye"
	default:
		return fmt.Sprintf("ERR unknown command %q", cmd)
	}
}

// Client is a test-side chat client on its own kernel task.
type Client struct {
	k    *kernel.Kernel
	task *laminar.Task
	fd   kernel.FD
}

// Dial connects a fresh task to the named chat listener, retrying a
// bounded number of times over transient (injected) connect faults.
func Dial(sys *laminar.System, name string) (*Client, error) {
	k := sys.Kernel()
	task, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		return nil, err
	}
	var fd kernel.FD
	for attempt := 0; ; attempt++ {
		fd, err = k.Connect(task, name)
		if err == nil {
			break
		}
		if attempt+1 >= dialRetries || !errors.Is(err, kernel.ErrIO) {
			k.Exit(task)
			return nil, err
		}
	}
	return &Client{k: k, task: task, fd: fd}, nil
}

// Alive reports whether the client's kernel task still exists (a chaos
// fault may have crash-killed it).
func (c *Client) Alive() bool { return !c.task.Exited() }

// Send transmits one protocol line.
func (c *Client) Send(line string) error {
	_, err := c.k.Send(c.task, c.fd, []byte(line))
	return err
}

// Recv returns the next reply, or "" when none is pending.
func (c *Client) Recv() string {
	buf := make([]byte, 1024)
	n, err := c.k.Recv(c.task, c.fd, buf)
	if err != nil || n == 0 {
		return ""
	}
	return strings.TrimSpace(string(buf[:n]))
}
