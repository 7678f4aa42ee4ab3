package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nestless/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadModeLeavesNoProfile pins that -mode is checked before
// -cpuprofile creates its file: the run exits 2 and leaves no
// truncated profile behind.
func TestBadModeLeavesNoProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	_, stderr, code := clitest.Run("-mode bogus -cpuprofile " + prof)
	if _, err := os.Stat(prof); code != 2 || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("nestctl -mode bogus: exit status %d, profile stat %v\n%s", code, err, stderr)
	}
}

// TestStrayArgument pins that flag parsing does not stop at a stray
// argument and drop the flags after it: the run exits 2 naming it.
func TestStrayArgument(t *testing.T) {
	_, stderr, code := clitest.Run("stray -mode brfusion")
	if code != 2 || !strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("nestctl stray -mode brfusion: exit status %d, want 2 naming the argument:\n%s", code, stderr)
	}
}
