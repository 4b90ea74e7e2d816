package freecs

import (
	"errors"
	"testing"

	"laminar"
)

func newChat(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(laminar.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBanPolicy(t *testing.T) {
	s := newChat(t)
	admin, err := s.Login("admin", RoleSuperuser, "lobby")
	if err != nil {
		t.Fatal(err)
	}
	vip, err := s.Login("vip", RoleVIP)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := s.Login("guest", RoleGuest)
	if err != nil {
		t.Fatal(err)
	}
	troll, err := s.Login("troll", RoleGuest)
	if err != nil {
		t.Fatal(err)
	}

	// Only the VIP superuser can ban.
	if err := s.Ban(guest, "lobby", "troll"); !errors.Is(err, ErrDenied) {
		t.Errorf("guest ban = %v, want denied", err)
	}
	if err := s.Ban(vip, "lobby", "troll"); !errors.Is(err, ErrDenied) {
		t.Errorf("plain VIP ban = %v, want denied", err)
	}
	if err := s.Ban(admin, "lobby", "troll"); err != nil {
		t.Fatalf("admin ban = %v", err)
	}
	// The banned user cannot speak; others can.
	if err := s.Say(troll, "lobby", "hi"); !errors.Is(err, ErrDenied) {
		t.Errorf("banned say = %v, want denied", err)
	}
	if err := s.Say(guest, "lobby", "hi"); err != nil {
		t.Errorf("guest say = %v", err)
	}
	if s.Messages("lobby") != 1 {
		t.Errorf("messages = %d", s.Messages("lobby"))
	}
}

func TestThemeAndInvitePolicy(t *testing.T) {
	s := newChat(t)
	admin, _ := s.Login("admin", RoleSuperuser, "lobby")
	vip, _ := s.Login("vip", RoleVIP)

	if err := s.SetTheme(vip, "lobby", "hax"); !errors.Is(err, ErrDenied) {
		t.Errorf("vip theme = %v, want denied", err)
	}
	if err := s.SetTheme(admin, "lobby", "maintenance"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Theme(vip, "lobby")
	if err != nil || got != "maintenance" {
		t.Errorf("theme = %q, %v", got, err)
	}
	if err := s.invite(vip, "lobby", "friend"); !errors.Is(err, ErrDenied) {
		t.Errorf("vip invite = %v, want denied", err)
	}
	if err := s.invite(admin, "lobby", "friend"); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLifecycle(t *testing.T) {
	s := newChat(t)
	if _, err := s.createGroup("dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.createGroup("dev"); err == nil {
		t.Error("duplicate group accepted")
	}
	// A superuser of lobby is NOT a superuser of dev.
	admin, _ := s.Login("admin", RoleSuperuser, "lobby")
	if err := s.Ban(admin, "dev", "x"); !errors.Is(err, ErrDenied) {
		t.Errorf("cross-group ban = %v, want denied", err)
	}
	if err := s.Ban(admin, "nope", "x"); err == nil {
		t.Error("ban in missing group accepted")
	}
	if _, err := s.Login("admin", RoleGuest); err == nil {
		t.Error("duplicate login accepted")
	}
}

func TestWorkloads(t *testing.T) {
	s := newChat(t)
	n, err := RunWorkload(s, 200)
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Errorf("commands = %d, want 600", n)
	}
	u := NewUnsecuredServer()
	n, err = RunUnsecuredWorkload(u, 200)
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Errorf("unsecured commands = %d, want 600", n)
	}
	// Every user says hello; the 180 guests (200 less 2 superusers and
	// 18 VIPs) also say bye.
	if got := s.Messages("lobby"); got != 380 {
		t.Errorf("secured msgs = %d, want 380", got)
	}
}

func TestUnsecuredPolicyChecks(t *testing.T) {
	s := NewUnsecuredServer()
	s.grantSuperuser("lobby", "admin")
	admin := &UnsecUser{Name: "admin", Role: RoleSuperuser}
	vip := &UnsecUser{Name: "vip", Role: RoleVIP}
	troll := &UnsecUser{Name: "troll", Role: RoleGuest}
	if err := s.ban(vip, "lobby", "troll"); !errors.Is(err, ErrDenied) {
		t.Errorf("vip ban = %v", err)
	}
	if err := s.ban(admin, "lobby", "troll"); err != nil {
		t.Fatal(err)
	}
	if err := s.say(troll, "lobby", "hi"); !errors.Is(err, ErrDenied) {
		t.Errorf("banned say = %v", err)
	}
}
