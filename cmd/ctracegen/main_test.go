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

// TestStrayArgument pins that flag parsing does not stop at a stray
// argument and drop the flags after it: the run exits 2 naming it and
// writes no trace.
func TestStrayArgument(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.csv")
	stdout, stderr, code := clitest.Run("-users 2 stray -out " + out)
	if _, err := os.Stat(out); code != 2 || stdout != "" || !errors.Is(err, fs.ErrNotExist) ||
		!strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("ctracegen -users 2 stray -out x.csv: exit status %d, %d stdout bytes, out stat %v:\n%s",
			code, len(stdout), err, stderr)
	}
}
