// Benchmarks regenerating the paper's evaluation through the testing.B
// interface, one benchmark family per table/figure. cmd/laminar-bench
// prints the same results as formatted tables; EXPERIMENTS.md records a
// run of both.
package laminar_test

import (
	"fmt"
	"testing"

	"laminar"
	"laminar/internal/apps/battleship"
	"laminar/internal/apps/calendar"
	"laminar/internal/apps/freecs"
	"laminar/internal/apps/gradesheet"
	"laminar/internal/dacapo"
	"laminar/internal/difc"
	"laminar/internal/flume"
	"laminar/internal/jvm"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/lmbench"
)

// --- §6.1 figure: JVM overhead (DaCapo + pseudojbb, three barrier modes) ---

func BenchmarkJVMOverhead(b *testing.B) {
	modes := []struct {
		name string
		opts jvm.CompileOptions
	}{
		{"none", jvm.CompileOptions{Mode: jvm.BarrierNone}},
		{"static", jvm.CompileOptions{Mode: jvm.BarrierStatic}},
		{"static-opt", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}},
		{"dynamic", jvm.CompileOptions{Mode: jvm.BarrierDynamic}},
		{"dynamic-opt", jvm.CompileOptions{Mode: jvm.BarrierDynamic, Optimize: true}},
	}
	for _, m := range dacapo.Workloads {
		for _, mode := range modes {
			b.Run(m.Name+"/"+mode.name, func(b *testing.B) {
				prog, err := dacapo.Build(m)
				if err != nil {
					b.Fatal(err)
				}
				mc, err := jvm.NewMachine(prog, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				th, err := jvm.HostThread(prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mc.Call(th, "run", jvm.IntV(4)); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mc.Call(th, "run", jvm.IntV(50)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- §6.1: compilation time by barrier configuration ---

func BenchmarkCompileTime(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts jvm.CompileOptions
	}{
		{"none", jvm.CompileOptions{Mode: jvm.BarrierNone}},
		{"static", jvm.CompileOptions{Mode: jvm.BarrierStatic}},
		{"dynamic", jvm.CompileOptions{Mode: jvm.BarrierDynamic}},
		{"static-opt", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			progs := make([]*jvm.Program, len(dacapo.Workloads))
			for i, m := range dacapo.Workloads {
				p, err := dacapo.Build(m)
				if err != nil {
					b.Fatal(err)
				}
				progs[i] = p
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					p.ResetCompilation()
					if _, err := p.CompileAll(mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Table 2: lmbench microbenchmarks, bare kernel vs Laminar LSM ---

func BenchmarkLmbench(b *testing.B) {
	for _, bench := range lmbench.Suite() {
		for _, cfg := range []struct {
			name    string
			withLSM bool
		}{{"linux", false}, {"laminar", true}} {
			b.Run(bench.Name+"/"+cfg.name, func(b *testing.B) {
				var k *kernel.Kernel
				if cfg.withLSM {
					mod := lsm.New()
					k = kernel.New(kernel.WithSecurityModule(mod))
					mod.InstallSystemIntegrity(k)
				} else {
					k = kernel.New()
				}
				task, err := k.Spawn(k.InitTask(), nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := k.Chdir(task, "/tmp"); err != nil {
					b.Fatal(err)
				}
				body, err := bench.Setup(k, task)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := body(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table 3 / Figure 9: application case studies ---

func BenchmarkAppGradeSheet(b *testing.B) {
	b.Run("secured", func(b *testing.B) {
		s, err := gradesheet.New(laminar.NewSystem(), 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		w := gradesheet.NewWorkload(1)
		w.RunSecured(s, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunSecured(s, 100)
		}
	})
	b.Run("unsecured", func(b *testing.B) {
		u := gradesheet.NewUnsecured(16, 8)
		w := gradesheet.NewWorkload(1)
		w.RunUnsecured(u, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunUnsecured(u, 100)
		}
	})
}

func BenchmarkAppBattleship(b *testing.B) {
	b.Run("secured", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := battleship.NewGame(laminar.NewSystem(), int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Play(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsecured", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := battleship.NewUnsecuredGame(int64(i + 1))
			if g.Play() == nil {
				b.Fatal("no winner")
			}
		}
	})
}

func BenchmarkAppCalendar(b *testing.B) {
	b.Run("secured", func(b *testing.B) {
		s, err := calendar.New(laminar.NewSystem())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ScheduleMeeting(); err != nil {
				if err == calendar.ErrNoSlot {
					b.StopTimer()
					if err := s.ResetAlice(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					continue
				}
				b.Fatal(err)
			}
		}
	})
	b.Run("unsecured", func(b *testing.B) {
		u, err := calendar.NewUnsecured(laminar.NewSystem())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.ScheduleMeeting(); err != nil {
				if err == calendar.ErrNoSlot {
					b.StopTimer()
					u.ResetAlice()
					b.StartTimer()
					continue
				}
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAppFreeCS(b *testing.B) {
	b.Run("secured", func(b *testing.B) {
		s, err := freecs.NewServer(laminar.NewSystem())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		users := 0
		for i := 0; i < b.N; i++ {
			// Unique user names across iterations.
			if _, err := runFreecsSlice(s, users, 20); err != nil {
				b.Fatal(err)
			}
			users += 20
		}
	})
	b.Run("unsecured", func(b *testing.B) {
		s := freecs.NewUnsecuredServer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := freecs.RunUnsecuredWorkload(s, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runFreecsSlice logs in a window of users with unique names and runs the
// three-command pattern.
func runFreecsSlice(s *freecs.Server, start, n int) (int, error) {
	commands := 0
	for i := start; i < start+n; i++ {
		name := fmt.Sprintf("bench-user%d", i)
		role := freecs.RoleGuest
		var groups []string
		if i%100 == 0 {
			role = freecs.RoleSuperuser
			groups = []string{"lobby"}
		} else if i%10 == 0 {
			role = freecs.RoleVIP
		}
		u, err := s.Login(name, role, groups...)
		if err != nil {
			return commands, err
		}
		if err := s.Say(u, "lobby", "hello"); err != nil {
			return commands, err
		}
		if _, err := s.Theme(u, "lobby"); err != nil {
			return commands, err
		}
		if role == freecs.RoleSuperuser {
			if err := s.Ban(u, "lobby", fmt.Sprintf("spammer%d", i)); err != nil {
				return commands, err
			}
		} else if err := s.Say(u, "lobby", "bye"); err != nil && err != freecs.ErrDenied {
			return commands, err
		}
		commands += 3
		s.Logout(u)
	}
	return commands, nil
}

// --- §6.2 framing: Flume-style monitor vs Laminar kernel pipes ---

func BenchmarkIPC(b *testing.B) {
	b.Run("laminar-pipe", func(b *testing.B) {
		mod := lsm.New()
		k := kernel.New(kernel.WithSecurityModule(mod))
		mod.InstallSystemIntegrity(k)
		task, err := k.Spawn(k.InitTask(), nil)
		if err != nil {
			b.Fatal(err)
		}
		r, w, err := k.Pipe(task)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Write(task, w, buf); err != nil {
				b.Fatal(err)
			}
			if _, err := k.Read(task, r, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flume-monitor", func(b *testing.B) {
		mon := flume.NewMonitor()
		p, q := mon.Spawn(), mon.Spawn()
		ea, eb, err := mon.CreateEndpointPair(p, q, difc.Labels{})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mon.Send(p, ea, buf); err != nil {
				b.Fatal(err)
			}
			if _, err := mon.Recv(q, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- runtime primitive unit costs (Figure 9 attribution) ---

func BenchmarkPrimitives(b *testing.B) {
	sys := laminar.NewSystem()
	shell, err := sys.Login("bench")
	if err != nil {
		b.Fatal(err)
	}
	_, th, err := sys.LaunchVM(shell)
	if err != nil {
		b.Fatal(err)
	}
	tag, err := th.CreateTag()
	if err != nil {
		b.Fatal(err)
	}
	labels := laminar.Labels{S: laminar.NewLabel(tag)}

	b.Run("region-enter-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {}, nil)
		}
	})
	b.Run("read-barrier", func(b *testing.B) {
		th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
			o := r.Alloc(nil)
			r.Set(o, "f", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Get(o, "f")
			}
		}, nil)
	})
	b.Run("raw-read", func(b *testing.B) {
		o := laminar.NewObject()
		o.RawSet("f", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.RawGet("f")
		}
	})
	b.Run("labeled-alloc", func(b *testing.B) {
		th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Alloc(nil)
			}
		}, nil)
	})
	b.Run("dynamic-barrier-outside", func(b *testing.B) {
		o := laminar.NewObject()
		o.RawSet("f", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Get(o, "f")
		}
	})
}

// --- difc model primitive costs ---

func BenchmarkLabelOps(b *testing.B) {
	small := difc.NewLabel(1, 2, 3)
	big := difc.NewLabel(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	b.Run("subset-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			small.SubsetOf(big)
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = small.Union(big)
		}
	})
	b.Run("check-flow", func(b *testing.B) {
		src := difc.Labels{S: small}
		dst := difc.Labels{S: big}
		for i := 0; i < b.N; i++ {
			if err := difc.CheckFlow("bench", src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
