// Package calendar is the third Laminar case study (§7.3), modeled on the
// k5nCal multithreaded desktop calendar: every data structure and .ics
// file holding a user's calendar is labeled with the user's secrecy tag,
// and all code touching it runs inside security regions. The experiment
// (§7.3) schedules meetings between Alice and Bob with a scheduler thread
// that can read both calendars but declassify only Bob's data; the agreed
// date goes to an output file labeled for Alice.
//
// The setup also exercises the §3.3 machinery end to end: users allocate
// their own tags and hand the scheduler capabilities over kernel pipes
// with write_capability, and the calendar loads run on concurrently
// executing threads with heterogeneous labels — the pattern OS-level DIFC
// cannot express in one address space.
package calendar

import (
	"fmt"
	"sync"

	"laminar"
	"laminar/internal/simwork"
)

// meetingRequestWork models the iCalendar parsing, invitation formatting
// and UI refresh around each scheduling request, identical in both
// variants.
const meetingRequestWork = 15000

// Slots is the number of schedulable slots per calendar.
const Slots = 64

// User owns a tag and a labeled calendar file.
type User struct {
	thread *laminar.Thread
	tag    laminar.Tag
	file   string
}

// Tag returns the user's secrecy tag (tests only).
func (u *User) Tag() laminar.Tag { return u.tag }

// Scheduler is the meeting scheduler with Alice's and Bob's plus
// capabilities and only Bob's minus capability.
type Scheduler struct {
	sys    *laminar.System
	vm     *laminar.VM
	thread *laminar.Thread
	Alice  *User
	Bob    *User

	outFile string // labeled {S(alice)}; Alice reads the meeting dates

	mu   sync.Mutex
	calA *laminar.Object // labeled {S(a)}
	calB *laminar.Object // labeled {S(b)}
}

// New boots the scenario: one VM, three threads (scheduler, alice, bob),
// labeled calendar files with a deterministic busy pattern, and
// capability hand-off over pipes.
func New(sys *laminar.System) (*Scheduler, error) {
	shell, err := sys.Login("caluser")
	if err != nil {
		return nil, err
	}
	vm, main, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	if err := sys.Kernel().Chdir(main.Task(), "/tmp"); err != nil {
		return nil, err
	}
	s := &Scheduler{sys: sys, vm: vm, thread: main}

	if s.Alice, err = s.newUser(main, "alice", 2); err != nil {
		return nil, err
	}
	if s.Bob, err = s.newUser(main, "bob", 3); err != nil {
		return nil, err
	}

	// Capability hand-off over pipes (write_capability, §4.4): Alice
	// sends a+; Bob sends b+ and b-.
	if err := s.receiveCaps(s.Alice, laminar.CapPlus); err != nil {
		return nil, err
	}
	if err := s.receiveCaps(s.Bob, laminar.CapPlus); err != nil {
		return nil, err
	}
	if err := s.receiveCaps(s.Bob, laminar.CapMinus); err != nil {
		return nil, err
	}

	// Pre-create the output file, labeled for Alice, while the scheduler
	// is still unlabeled (pre-creation rule, §5.2).
	s.outFile = "meetings-alice"
	k := sys.Kernel()
	fd, err := k.CreateFileLabeled(main.Task(), s.outFile, 0o600,
		laminar.Labels{S: laminar.NewLabel(s.Alice.tag)})
	if err != nil {
		return nil, err
	}
	k.Close(main.Task(), fd)

	// Load both calendars concurrently on the owners' threads: two live
	// threads with different labels in one address space.
	if err := s.loadCalendars(); err != nil {
		return nil, err
	}
	return s, nil
}

// VM exposes the runtime for statistics.
func (s *Scheduler) VM() *laminar.VM { return s.vm }

// newUser forks a user thread, allocates the user's tag, and writes the
// labeled calendar file with every busyEvery-th slot occupied.
func (s *Scheduler) newUser(main *laminar.Thread, name string, busyEvery int) (*User, error) {
	th, err := main.Fork([]laminar.Capability{})
	if err != nil {
		return nil, err
	}
	tag, err := th.CreateTag()
	if err != nil {
		return nil, err
	}
	u := &User{thread: th, tag: tag, file: name + ".ics"}
	k := s.sys.Kernel()
	fd, err := k.CreateFileLabeled(th.Task(), u.file, 0o600,
		laminar.Labels{S: laminar.NewLabel(tag)})
	if err != nil {
		return nil, err
	}
	defer k.Close(th.Task(), fd)
	// Fill the calendar from the user's own security region.
	busy := make([]byte, Slots)
	for i := range busy {
		if i%busyEvery == 0 {
			busy[i] = '1'
		} else {
			busy[i] = '0'
		}
	}
	var werr error
	err = th.Secure(laminar.Labels{S: laminar.NewLabel(tag)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		wfd, err := r.OpenFile(u.file, laminar.OWrite)
		if err != nil {
			werr = err
			return
		}
		defer r.CloseFile(wfd)
		if _, err := r.WriteFile(wfd, busy); err != nil {
			werr = err
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	return u, werr
}

// receiveCaps moves one capability from the user to the scheduler over a
// fresh kernel pipe.
func (s *Scheduler) receiveCaps(u *User, kind laminar.CapKind) error {
	k := s.sys.Kernel()
	r, w, err := k.Pipe(u.thread.Task())
	if err != nil {
		return err
	}
	rs, err := k.DupTo(u.thread.Task(), r, s.thread.Task())
	if err != nil {
		return err
	}
	if err := u.thread.SendCapability(laminar.Capability{Tag: u.tag, Kind: kind}, w); err != nil {
		return err
	}
	if _, err := s.thread.ReceiveCapability(rs); err != nil {
		return err
	}
	k.Close(u.thread.Task(), r)
	k.Close(u.thread.Task(), w)
	k.Close(s.thread.Task(), rs)
	return nil
}

// loadCalendars parses each labeled .ics file into a labeled in-memory
// array, concurrently, on the scheduler's behalf (the scheduler holds both
// plus capabilities, so it spawns one loader region per user on forked
// threads).
func (s *Scheduler) loadCalendars() error {
	keepA := []laminar.Capability{{Tag: s.Alice.tag, Kind: laminar.CapPlus}}
	keepB := []laminar.Capability{{Tag: s.Bob.tag, Kind: laminar.CapPlus}}
	loaderA, err := s.thread.Fork(keepA)
	if err != nil {
		return err
	}
	loaderB, err := s.thread.Fork(keepB)
	if err != nil {
		return err
	}
	if err := s.sys.Kernel().Chdir(loaderA.Task(), "/tmp"); err != nil {
		return err
	}
	if err := s.sys.Kernel().Chdir(loaderB.Task(), "/tmp"); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	load := func(idx int, th *laminar.Thread, u *User, dst **laminar.Object) {
		defer wg.Done()
		labels := laminar.Labels{S: laminar.NewLabel(u.tag)}
		errs[idx] = th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
			fd, err := r.OpenFile(u.file, laminar.ORead)
			if err != nil {
				panic(&laminar.Violation{Op: "open", Err: err})
			}
			defer r.CloseFile(fd)
			buf := make([]byte, Slots)
			if _, err := r.ReadFile(fd, buf); err != nil {
				panic(&laminar.Violation{Op: "read", Err: err})
			}
			cal := r.AllocArray(Slots, nil)
			for i := 0; i < Slots; i++ {
				busy := 0
				if buf[i] == '1' {
					busy = 1
				}
				r.SetIndex(cal, i, busy)
			}
			s.mu.Lock()
			*dst = cal
			s.mu.Unlock()
		}, nil)
	}
	wg.Add(2)
	go load(0, loaderA, s.Alice, &s.calA)
	go load(1, loaderB, s.Bob, &s.calB)
	wg.Wait()
	loaderA.Exit()
	loaderB.Exit()
	if errs[0] != nil {
		return errs[0]
	}
	if errs[1] != nil {
		return errs[1]
	}
	if s.calA == nil || s.calB == nil {
		return fmt.Errorf("calendar: load failed inside security region")
	}
	return nil
}

// ErrNoSlot means no common free slot remains.
var ErrNoSlot = fmt.Errorf("calendar: no common free slot")

// ScheduleMeeting finds the earliest common free slot, marks it busy in
// Alice's calendar, and appends the slot to the Alice-labeled output file
// after declassifying Bob's contribution (the scheduler holds b− but not
// a−, exactly the paper's configuration).
func (s *Scheduler) ScheduleMeeting() (int, error) {
	simwork.Do(meetingRequestWork)
	a, b := s.Alice.tag, s.Bob.tag
	both := laminar.Labels{S: laminar.NewLabel(a, b)}
	bMinus := laminar.NewCapSet(laminar.EmptyLabel, laminar.NewLabel(b))
	chosen := -1
	var innerErr error
	violated := false
	err := s.thread.Secure(both, bMinus, func(r *laminar.Region) {
		slot := -1
		for i := 0; i < Slots; i++ {
			if r.Index(s.calA, i).(int) == 0 && r.Index(s.calB, i).(int) == 0 {
				slot = i
				break
			}
		}
		if slot < 0 {
			innerErr = ErrNoSlot
			return
		}
		// The chosen slot depends on both calendars. Declassify Bob's
		// contribution (b−) and continue at {S(a)}: marking Alice's
		// calendar and appending to her file are then legal writes.
		res := r.Alloc(nil)
		r.Set(res, "slot", slot)
		err := s.thread.Secure(laminar.Labels{S: laminar.NewLabel(a)}, bMinus, func(r2 *laminar.Region) {
			pub := r2.CopyAndLabel(res, laminar.Labels{S: laminar.NewLabel(a)})
			day := r2.Get(pub, "slot").(int)
			r2.SetIndex(s.calA, day, 1)
			fd, err := r2.OpenFile(s.outFile, laminar.OWrite|laminar.OAppend)
			if err != nil {
				panic(&laminar.Violation{Op: "open", Err: err})
			}
			defer r2.CloseFile(fd)
			if _, err := r2.WriteFile(fd, []byte(fmt.Sprintf("%d\n", day))); err != nil {
				panic(&laminar.Violation{Op: "write", Err: err})
			}
			s.mu.Lock()
			chosen = day
			s.mu.Unlock()
		}, nil)
		if err != nil {
			panic(&laminar.Violation{Op: "declassify", Err: err})
		}
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil {
		return -1, err
	}
	if innerErr != nil {
		return -1, innerErr
	}
	if violated || chosen < 0 {
		return -1, fmt.Errorf("calendar: scheduling denied")
	}
	return chosen, nil
}

// ResetAlice clears Alice's in-memory calendar back to the file state so
// long benchmark runs do not exhaust slots. Runs as a region of Alice's
// thread.
func (s *Scheduler) ResetAlice() error {
	labels := laminar.Labels{S: laminar.NewLabel(s.Alice.tag)}
	return s.Alice.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		for i := 0; i < Slots; i++ {
			busy := 0
			if i%2 == 0 {
				busy = 1
			}
			r.SetIndex(s.calA, i, busy)
		}
	}, nil)
}

// ReadMeetingsAsAlice returns the output file's contents from Alice's own
// security region — demonstrating that the result reaches exactly the
// intended reader.
func (s *Scheduler) ReadMeetingsAsAlice() (string, error) {
	labels := laminar.Labels{S: laminar.NewLabel(s.Alice.tag)}
	var out string
	if err := s.sys.Kernel().Chdir(s.Alice.thread.Task(), "/tmp"); err != nil {
		return "", err
	}
	err := s.Alice.thread.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		fd, err := r.OpenFile(s.outFile, laminar.ORead)
		if err != nil {
			panic(&laminar.Violation{Op: "open", Err: err})
		}
		defer r.CloseFile(fd)
		buf := make([]byte, 64*1024)
		n, err := r.ReadFile(fd, buf)
		if err != nil {
			panic(&laminar.Violation{Op: "read", Err: err})
		}
		out = string(buf[:n])
	}, nil)
	return out, err
}

// BobCannotReadMeetings probes that Bob's thread cannot open the
// Alice-labeled output file.
func (s *Scheduler) BobCannotReadMeetings() bool {
	if err := s.sys.Kernel().Chdir(s.Bob.thread.Task(), "/tmp"); err != nil {
		return false
	}
	_, err := s.sys.Kernel().Open(s.Bob.thread.Task(), s.outFile, laminar.ORead)
	return err != nil
}

// --- unsecured variant: the original k5nCal structure ---

// Unsecured schedules against plain in-memory calendars and unlabeled
// files; any user could read any calendar (the feature the paper's port
// disabled).
type Unsecured struct {
	sys  *laminar.System
	task *laminar.Task
	calA *laminar.Object
	calB *laminar.Object
	out  string
}

// NewUnsecured builds the baseline scheduler on the same kernel (the
// hooks run but all data is unlabeled, isolating the labeling cost).
func NewUnsecured(sys *laminar.System) (*Unsecured, error) {
	shell, err := sys.Login("plainuser")
	if err != nil {
		return nil, err
	}
	if err := sys.Kernel().Chdir(shell, "/tmp"); err != nil {
		return nil, err
	}
	u := &Unsecured{sys: sys, task: shell, out: "meetings-plain"}
	u.calA = laminar.NewArray(Slots)
	u.calB = laminar.NewArray(Slots)
	for i := 0; i < Slots; i++ {
		a, b := 0, 0
		if i%2 == 0 {
			a = 1
		}
		if i%3 == 0 {
			b = 1
		}
		u.calA.RawSetIndex(i, a)
		u.calB.RawSetIndex(i, b)
	}
	fd, err := sys.Kernel().Open(shell, u.out, laminar.OCreate|laminar.OWrite)
	if err != nil {
		return nil, err
	}
	sys.Kernel().Close(shell, fd)
	return u, nil
}

// ScheduleMeeting mirrors the secured logic without regions or labels.
func (u *Unsecured) ScheduleMeeting() (int, error) {
	simwork.Do(meetingRequestWork)
	slot := -1
	for i := 0; i < Slots; i++ {
		if u.calA.RawIndex(i).(int) == 0 && u.calB.RawIndex(i).(int) == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		return -1, ErrNoSlot
	}
	u.calA.RawSetIndex(slot, 1)
	k := u.sys.Kernel()
	fd, err := k.Open(u.task, u.out, laminar.OWrite|laminar.OAppend)
	if err != nil {
		return -1, err
	}
	defer k.Close(u.task, fd)
	if _, err := k.Write(u.task, fd, []byte(fmt.Sprintf("%d\n", slot))); err != nil {
		return -1, err
	}
	return slot, nil
}

// ResetAlice mirrors the secured reset.
func (u *Unsecured) ResetAlice() {
	for i := 0; i < Slots; i++ {
		busy := 0
		if i%2 == 0 {
			busy = 1
		}
		u.calA.RawSetIndex(i, busy)
	}
}
