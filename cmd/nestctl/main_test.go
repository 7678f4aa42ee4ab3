package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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
