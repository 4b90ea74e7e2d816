// Package lmbench reimplements the lmbench microbenchmarks of Table 2
// against the simulated kernel: each benchmark times one syscall pattern
// with the Laminar security module installed and again on the bare kernel,
// reporting the per-operation latency and the module's relative overhead.
// Absolute times are properties of the simulation, but the *ratio* —
// which operations pay for hooks, and that a trivial syscall (null I/O)
// pays the most relatively — is the Table 2 result being reproduced.
package lmbench

import (
	"fmt"
	"time"

	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// Benchmark is one lmbench microbenchmark.
type Benchmark struct {
	Name string
	// Setup prepares kernel state and returns the per-iteration body.
	Setup func(k *kernel.Kernel, t *kernel.Task) (func() error, error)
}

// Result is one row of Table 2.
type Result struct {
	Name         string
	BaseNanos    float64 // per-op, unmodified kernel
	LaminarNanos float64 // per-op, Laminar module installed
}

// overheadPct returns the relative overhead in percent.
func (r Result) overheadPct() float64 {
	if r.BaseNanos == 0 {
		return 0
	}
	return (r.LaminarNanos - r.BaseNanos) / r.BaseNanos * 100
}

// String formats the row like the paper's table (microseconds).
func (r Result) String() string {
	return fmt.Sprintf("%-16s %10.3f %10.3f %8.1f%%",
		r.Name, r.BaseNanos/1000, r.LaminarNanos/1000, r.overheadPct())
}

// Suite returns the Table 2 benchmarks.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "stat", Setup: setupStat},
		{Name: "fork", Setup: setupFork},
		{Name: "exec", Setup: setupExec},
		{Name: "0k file create", Setup: setupCreate},
		{Name: "0k file delete", Setup: setupDelete},
		{Name: "mmap latency", Setup: setupMmap},
		{Name: "prot fault", Setup: setupProtFault},
		{Name: "null I/O", Setup: setupNullIO},
	}
}

func setupStat(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/statfile", kernel.OCreate|kernel.OWrite)
	if err != nil {
		return nil, err
	}
	k.Close(t, fd)
	return func() error {
		_, err := k.Stat(t, "/tmp/statfile")
		return err
	}, nil
}

func setupFork(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	return func() error {
		child, err := k.Fork(t, nil)
		if err != nil {
			return err
		}
		k.Exit(child)
		return nil
	}, nil
}

func setupExec(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/prog", kernel.OCreate|kernel.OWrite)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, []byte("#!prog")); err != nil {
		return nil, err
	}
	k.Close(t, fd)
	return func() error {
		child, err := k.Fork(t, nil)
		if err != nil {
			return err
		}
		err = k.Exec(child, "/tmp/prog")
		k.Exit(child)
		return err
	}, nil
}

func setupCreate(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	// Pure create: zero-length files with unique names, as lat_fs does.
	n := 0
	return func() error {
		n++
		fd, err := k.Open(t, fmt.Sprintf("/tmp/c%d", n), kernel.OCreate|kernel.OWrite)
		if err != nil {
			return err
		}
		return k.Close(t, fd)
	}, nil
}

func setupDelete(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	// Create-then-unlink; the create cost is identical in both kernel
	// configurations' numerators, so the delta is dominated by unlink's
	// two extra permission hooks.
	n := 0
	return func() error {
		n++
		name := fmt.Sprintf("/tmp/d%d", n)
		fd, err := k.Open(t, name, kernel.OCreate|kernel.OWrite)
		if err != nil {
			return err
		}
		k.Close(t, fd)
		return k.Unlink(t, name)
	}, nil
}

func setupMmap(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/mapfile", kernel.OCreate|kernel.OWrite|kernel.ORead)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, make([]byte, 16*kernel.PageSize)); err != nil {
		return nil, err
	}
	return func() error {
		addr, err := k.Mmap(t, 16*kernel.PageSize, kernel.ProtRead, fd)
		if err != nil {
			return err
		}
		return k.Munmap(t, addr)
	}, nil
}

func setupProtFault(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/pffile", kernel.OCreate|kernel.OWrite|kernel.ORead)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, make([]byte, kernel.PageSize)); err != nil {
		return nil, err
	}
	addr, err := k.Mmap(t, kernel.PageSize, kernel.ProtRead|kernel.ProtWrite, fd)
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := k.Mprotect(t, addr, kernel.ProtRead); err != nil {
			return err
		}
		if err := k.PageFault(t, addr, false); err != nil {
			return err
		}
		return k.Mprotect(t, addr, kernel.ProtRead|kernel.ProtWrite)
	}, nil
}

func setupNullIO(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	zfd, err := k.Open(t, "/dev/zero", kernel.ORead)
	if err != nil {
		return nil, err
	}
	nfd, err := k.Open(t, "/dev/null", kernel.OWrite)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1)
	return func() error {
		if _, err := k.Read(t, zfd, buf); err != nil {
			return err
		}
		_, err := k.Write(t, nfd, buf)
		return err
	}, nil
}

// newKernel builds a kernel (with or without the Laminar module) and a
// task working in /tmp.
func newKernel(withLSM bool) (*kernel.Kernel, *kernel.Task, error) {
	var k *kernel.Kernel
	if withLSM {
		mod := lsm.New()
		k = kernel.New(kernel.WithSecurityModule(mod))
		mod.InstallSystemIntegrity(k)
	} else {
		k = kernel.New()
	}
	t, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, nil, err
	}
	if err := k.Chdir(t, "/tmp"); err != nil {
		return nil, nil, err
	}
	return k, t, nil
}

// measure times iters executions of one benchmark on a fresh kernel.
func measure(b Benchmark, withLSM bool, iters int) (float64, error) {
	k, t, err := newKernel(withLSM)
	if err != nil {
		return 0, err
	}
	body, err := b.Setup(k, t)
	if err != nil {
		return 0, err
	}
	// Warm up.
	for i := 0; i < 16; i++ {
		if err := body(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := body(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// Run executes the whole suite, returning one Result per benchmark. iters
// controls the per-benchmark iteration count; trials repeats each
// measurement and keeps the minimum (lmbench's own strategy against
// scheduling noise).
func Run(iters, trials int) ([]Result, error) {
	var out []Result
	for _, b := range Suite() {
		res := Result{Name: b.Name}
		for trial := 0; trial < trials; trial++ {
			base, err := measure(b, false, iters)
			if err != nil {
				return nil, fmt.Errorf("%s (base): %w", b.Name, err)
			}
			lam, err := measure(b, true, iters)
			if err != nil {
				return nil, fmt.Errorf("%s (laminar): %w", b.Name, err)
			}
			if trial == 0 || base < res.BaseNanos {
				res.BaseNanos = base
			}
			if trial == 0 || lam < res.LaminarNanos {
				res.LaminarNanos = lam
			}
		}
		out = append(out, res)
	}
	return out, nil
}
