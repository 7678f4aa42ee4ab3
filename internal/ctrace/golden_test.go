package ctrace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nestless/internal/trace"
)

// goldenUsers is the pinned population behind testdata/golden.csv:
// small enough to diff by eye, churny enough to exercise ends.
func goldenUsers() []trace.User {
	gcfg := trace.DefaultConfig(3)
	gcfg.Users = 12
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	return trace.Generate(gcfg)
}

// TestGolden pins ctracegen's byte output and the read-back
// equivalence. Regenerate with
//
//	REGEN_GOLDEN=1 go test ./internal/ctrace -run TestGolden
//
// after an intentional format change and commit the diff.
func TestGolden(t *testing.T) {
	users := goldenUsers()
	t.Run("golden.csv", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Write(&buf, NewSynth(users), CSV); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden.csv")
		if os.Getenv("REGEN_GOLDEN") != "" {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with REGEN_GOLDEN=1 to create)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("golden.csv drifted from the golden bytes (REGEN_GOLDEN=1 regenerates after an intentional change)")
		}
		// Round trip: the golden file reads back to the synth stream.
		r := mustReader(t, bytes.NewReader(want), Options{})
		got := drain(t, r)
		if !reflect.DeepEqual(got, drain(t, NewSynth(users))) {
			t.Fatal("golden.csv did not read back to the source stream")
		}
	})
}
