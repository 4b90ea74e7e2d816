package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNonPositiveCountsExitBeforeRunning: a trial count or size below 1,
// or a mixed-storm size below one loop iteration, exits 2 at flag parse,
// before any experiment runs — so no table, no JSON and no gate verdict
// computed from a best-of over nothing.
func TestNonPositiveCountsExitBeforeRunning(t *testing.T) {
	if args := os.Getenv("LAMINAR_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"laminar-bench"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, want string }{
		{"-storm -gate -trials 0", "-trials 0: must be at least 1"},
		{"-netd -netdmsgs 0", "-netdmsgs 0: must be at least 1"},
		{"-cluster -clustermsgs -1", "-clustermsgs -1: must be at least 1"},
		{"-storm -vcwrites 0", "-vcwrites 0: must be at least 1"},
		{"-trace -tracemsgs 0", "-tracemsgs 0: must be at least 1"},
		{"-storm -concops 0", "-concops 0: must be at least 12"},
		// Below one 12-syscall iteration the mixed storm issues nothing.
		{"-storm -gate -concops 5 -trials 1", "-concops 5: must be at least 12"},
		{"-storm -concops 11 -trials 1", "-concops 11: must be at least 12"},
		{"-figure apps -scale 0", "-scale 0: must be at least 1"},
	} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveCountsExitBeforeRunning$")
		cmd.Env = append(os.Environ(), "LAMINAR_BENCH_ARGS="+c.args+" -out "+dir)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%s: exited without naming the bad count:\n%s", c.args, out)
		}
		if strings.Contains(string(out), "PASS") || strings.Contains(string(out), "gate:") {
			t.Errorf("%s: printed a gate verdict:\n%s", c.args, out)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: wrote %d file(s)", c.args, len(entries))
		}
	}
}
