// Package golden pins simulator behaviour to a recorded digest corpus.
//
// A corpus is a text file (testdata/golden.txt by convention) holding
// one line per pinned case: the case name, then the fields Line
// formats — the world or replay digest, an FNV-1a hash of the
// fmt "%+v" rendering of the Result, and an FNV-1a hash of the
// telemetry text trace plus metrics table (the figure corpus formats
// its own fields: hashes of table text, trace and every metrics table).
// Lines starting with '#' are comments. Tests open the corpus for one
// name prefix, check every case they run against it, and fail on any
// mismatch, any case missing from the file, and any line under their
// prefix that no case visited — so a corpus can neither drift nor go
// stale silently.
//
// There is no re-record mode. A failing check prints the complete
// replacement line; after an intended behaviour change, paste the
// printed lines over the old ones and delete the lines reported stale.
package golden

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"nestless/internal/telemetry"
)

// fnv64a is 64-bit FNV-1a over s.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Line formats one case's pinned fields. The trace field hashes rec's
// text trace followed by its metrics table, whose rows follow
// registration order; a nil recorder prints as "-".
func Line(digest uint64, result any, rec *telemetry.Recorder) string {
	tr := "-"
	if rec != nil {
		var b strings.Builder
		rec.WriteTextTrace(&b) // fails only when the writer does
		rec.Metrics().Table("metrics").WriteText(&b)
		tr = fmt.Sprintf("%016x", fnv64a(b.String()))
	}
	return fmt.Sprintf("digest=%016x result=%016x trace=%s",
		digest, fnv64a(fmt.Sprintf("%+v", result)), tr)
}

// Set is the slice of a corpus one test owns: every line whose name
// starts with its prefix.
type Set struct {
	t      *testing.T
	path   string
	prefix string
	want   map[string]string
	seen   map[string]bool
}

// Open loads the corpus at path and returns the lines under prefix.
// When the test ends without another failure, every one of those lines
// must have been checked.
func Open(t *testing.T, path, prefix string) *Set {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	s := &Set{t: t, path: path, prefix: prefix, want: map[string]string{}, seen: map[string]bool{}}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if _, dup := s.want[name]; dup {
			t.Fatalf("golden: %s: duplicate line for %s", path, name)
		}
		s.want[name] = rest
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		for name := range s.want {
			if !s.seen[name] {
				t.Errorf("golden: %s: stale line %s (no case ran it; delete it)", path, name)
			}
		}
	})
	return s
}

// Check compares one case's line with the corpus. name must carry the
// set's prefix and be checked at most once.
func (s *Set) Check(name, line string) {
	s.t.Helper()
	if !strings.HasPrefix(name, s.prefix) {
		s.t.Fatalf("golden: case %s outside prefix %q", name, s.prefix)
	}
	if s.seen[name] {
		s.t.Fatalf("golden: case %s checked twice", name)
	}
	s.seen[name] = true
	want, ok := s.want[name]
	if !ok {
		s.t.Errorf("golden: %s: no line for %s; record it as\n%s %s", s.path, name, name, line)
		return
	}
	if want != line {
		s.t.Errorf("golden: %s: %s diverged\n got  %s\n want %s\nreplacement line:\n%s %s",
			s.path, name, line, want, name, line)
	}
}
