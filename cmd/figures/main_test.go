package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nestless/internal/cli/clitest"
	"nestless/internal/figures"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestUnknownFigure pins the exit-2 path: a name outside the registry
// (fig12 included: fig11 prints Figs. 11–12) or no -fig at all lists
// the registry's names on stderr, before -cpuprofile creates its file.
func TestUnknownFigure(t *testing.T) {
	for _, args := range []string{"-fig fig12", "-quick"} {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		_, stderr, code := clitest.Run(args + " -cpuprofile " + prof)
		_, err := os.Stat(prof)
		if code != 2 || !strings.Contains(stderr, names()) || !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("figures %s: exit status %d, profile stat %v, stderr:\n%s", args, code, err, stderr)
		}
	}
}

// TestOutput pins that the command prints a registry entry's tables as
// they render: text by default, CSV under -csv.
func TestOutput(t *testing.T) {
	var table1, fig2 strings.Builder
	figures.Table1().WriteText(&table1)
	f, _ := figures.Lookup("fig2")
	f.Run(figures.Opts{Seed: 42, Quick: true})[0].WriteCSV(&fig2)
	for args, want := range map[string]string{"-fig table1": table1.String(), "-quick -csv -fig fig2": fig2.String()} {
		if out, stderr, code := clitest.Run(args); code != 0 || out != want {
			t.Errorf("figures %s: exit status %d, stdout:\n%s\nwant:\n%s%s", args, code, out, want, stderr)
		}
	}
}
