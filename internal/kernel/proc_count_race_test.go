package kernel_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
)

// TestProcThreadCountStormRace races forks, exits and fault-killed tasks
// inside one process against the §4.1 refusal, which reads the
// process's live-thread count (Task.ThreadsInProc) instead of scanning
// the task table. One child of the process leader lives through the
// whole storm, so every set_task_label the leader issues meanwhile must
// be refused. After the storm quiesces the count must equal a table
// scan; once every other thread is gone the leader may relabel again.
func TestProcThreadCountStormRace(t *testing.T) {
	const (
		nWorkers = 6
		rounds   = 150
	)
	// Every exec crashes: Exec is this storm's way to kill a task
	// mid-operation (killTaskHolding), as the chaos harness does.
	plan := faultinject.NewPlan(32)
	plan.SetRates("task.exec", faultinject.Rates{Crash: 1})
	k, _ := stormSystem(kernel.WithFaultInjector(plan))
	leader, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := k.AllocTag(leader)
	if err != nil {
		t.Fatal(err)
	}
	raise := difc.NewLabel(tag)
	pinned, err := k.Fork(leader, nil)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var refused atomic.Int64
	var probe sync.WaitGroup
	probe.Add(1)
	go func() {
		defer probe.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := k.SetTaskLabel(leader, kernel.Secrecy, raise)
			if !errors.Is(err, kernel.ErrPerm) {
				t.Errorf("set_task_label with a second thread live = %v, want EPERM", err)
				return
			}
			refused.Add(1)
		}
	}()

	var mu sync.Mutex
	var survivors []*kernel.Task
	var killed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				child, err := k.Fork(leader, nil)
				if err != nil {
					t.Errorf("worker %d: fork: %v", w, err)
					return
				}
				switch rng.Intn(5) {
				case 0:
					k.Exit(child)
				case 1:
					if err := k.Exec(child, "/tmp"); !errors.Is(err, kernel.ErrKilled) {
						t.Errorf("worker %d: crashed exec = %v, want EKILLED", w, err)
					}
					killed.Add(1)
				case 2:
					grand, err := k.Fork(child, nil)
					if err != nil {
						t.Errorf("worker %d: fork from a child: %v", w, err)
						return
					}
					k.Exit(child)
					_ = k.Exec(grand, "/tmp")
				case 3:
					// An exit and a crash racing for one task: exactly
					// one of them may uncount it.
					var pair sync.WaitGroup
					pair.Add(2)
					go func() { defer pair.Done(); k.Exit(child) }()
					go func() { defer pair.Done(); _ = k.Exec(child, "/tmp") }()
					pair.Wait()
				default:
					mu.Lock()
					survivors = append(survivors, child)
					mu.Unlock()
				}
			}
		}(w)
	}
	stormWaitOrDeadlock(t, &wg)
	close(stop)
	probe.Wait()
	if refused.Load() == 0 || killed.Load() == 0 {
		t.Fatalf("storm too thin: %d refusals, %d fault kills", refused.Load(), killed.Load())
	}

	want := 2 + len(survivors) // leader, pinned and the survivors
	if got, table := leader.ThreadsInProc(), kernel.TableThreads(k, leader.Proc); got != table || got != want {
		t.Fatalf("after the storm: ThreadsInProc = %d, table scan = %d, want %d", got, table, want)
	}
	if err := k.SetTaskLabel(leader, kernel.Secrecy, raise); !errors.Is(err, kernel.ErrPerm) {
		t.Fatalf("set_task_label after the storm, %d threads live = %v, want EPERM", want, err)
	}
	k.Exit(pinned)
	for _, s := range survivors {
		k.Exit(s)
	}
	if got := leader.ThreadsInProc(); got != 1 {
		t.Fatalf("leader alone: ThreadsInProc = %d, want 1", got)
	}
	if err := k.SetTaskLabel(leader, kernel.Secrecy, raise); err != nil {
		t.Fatalf("set_task_label in a single-threaded process: %v", err)
	}
}
