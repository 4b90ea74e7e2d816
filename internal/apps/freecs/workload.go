package freecs

import (
	"fmt"

	"laminar/internal/simwork"
)

// RunWorkload reproduces the §7.4 experiment shape: nUsers users each
// issue three commands (say, theme read, and for the privileged few a
// moderation command). Returns the number of executed commands.
func RunWorkload(s *Server, nUsers int) (int, error) {
	commands := 0
	// A fixed cast of moderators: every 100th user is a VIP superuser.
	for i := 0; i < nUsers; i++ {
		name := fmt.Sprintf("user%d", i)
		role := RoleGuest
		var groups []string
		if i%100 == 0 {
			role = RoleSuperuser
			groups = []string{"lobby"}
		} else if i%10 == 0 {
			role = RoleVIP
		}
		u, err := s.Login(name, role, groups...)
		if err != nil {
			return commands, err
		}
		if err := s.Say(u, "lobby", "hello"); err != nil {
			return commands, err
		}
		commands++
		if _, err := s.Theme(u, "lobby"); err != nil {
			return commands, err
		}
		commands++
		switch role {
		case RoleSuperuser:
			if err := s.Ban(u, "lobby", fmt.Sprintf("spammer%d", i)); err != nil {
				return commands, err
			}
		case RoleVIP:
			// VIPs attempt a ban and are denied (no superuser tag).
			if err := s.Ban(u, "lobby", "victim"); err != ErrDenied {
				return commands, fmt.Errorf("freecs: VIP ban = %v, want denied", err)
			}
		default:
			if err := s.Say(u, "lobby", "bye"); err != nil {
				return commands, err
			}
		}
		commands++
		s.Logout(u)
	}
	return commands, nil
}

// RunUnsecuredWorkload mirrors RunWorkload against the original server.
func RunUnsecuredWorkload(s *UnsecuredServer, nUsers int) (int, error) {
	commands := 0
	for i := 0; i < nUsers; i++ {
		name := fmt.Sprintf("user%d", i)
		role := RoleGuest
		if i%100 == 0 {
			role = RoleSuperuser
			s.grantSuperuser("lobby", name)
		} else if i%10 == 0 {
			role = RoleVIP
		}
		u := &UnsecUser{Name: name, Role: role}
		simwork.Do(connectionWork + threadSpawnWork)
		if err := s.say(u, "lobby", "hello"); err != nil {
			return commands, err
		}
		commands++
		simwork.Do(commandWork) // theme read command
		commands++
		switch role {
		case RoleSuperuser:
			if err := s.ban(u, "lobby", fmt.Sprintf("spammer%d", i)); err != nil {
				return commands, err
			}
		case RoleVIP:
			if err := s.ban(u, "lobby", "victim"); err != ErrDenied {
				return commands, fmt.Errorf("freecs: VIP ban = %v, want denied", err)
			}
		default:
			if err := s.say(u, "lobby", "bye"); err != nil {
				return commands, err
			}
		}
		commands++
	}
	return commands, nil
}
