// Package clitest runs a command's main in a child process of its test
// binary, so the command's tests observe its real output and exit
// status (cli.BadFlag exits the process, which no in-process call can).
package clitest

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries Run's arguments to the child.
const argsEnv = "CLITEST_ARGS"

// Main is a command's TestMain: in a child started by Run it runs main
// with Run's arguments and exits 0 when main returns; otherwise it runs
// the tests.
func Main(m *testing.M, main func()) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command under test with space-separated args and
// returns its stdout, stderr and exit status (-1 if it did not start).
func Run(args string) (stdout, stderr string, code int) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, _ := cmd.Output()
	return string(out), errBuf.String(), cmd.ProcessState.ExitCode()
}
