package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNonPositiveCountsExitBeforeRunning: a trial count or size below 1
// exits 2 at flag parse, before any experiment runs — so no table, no
// JSON and no gate verdict computed from a best-of over nothing.
func TestNonPositiveCountsExitBeforeRunning(t *testing.T) {
	if args := os.Getenv("LAMINAR_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"laminar-bench"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{
		"-telemetry -gate -trials 0",
		"-netd -netdmsgs 0",
		"-cluster -clustermsgs -1",
		"-verdictcache -vcwrites 0",
		"-trace -tracemsgs 0",
		"-concurrency -concops 0",
		"-figure apps -scale 0",
	} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveCountsExitBeforeRunning$")
		cmd.Env = append(os.Environ(), "LAMINAR_BENCH_ARGS="+args+" -out "+dir)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "must be at least 1") {
			t.Errorf("%s: exited without naming the bad count:\n%s", args, out)
		}
		if strings.Contains(string(out), "PASS") || strings.Contains(string(out), "gate:") {
			t.Errorf("%s: printed a gate verdict:\n%s", args, out)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: wrote %d file(s)", args, len(entries))
		}
	}
}
