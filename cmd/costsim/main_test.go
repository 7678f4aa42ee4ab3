package main

import (
	"strings"
	"testing"

	"nestless/internal/cloud"
)

// TestCheckStaticRejectsClusterFlags pins the static path's flag gate:
// every cluster-simulation flag is an error there (exit 2 in main),
// while the static snapshot's own flags pass.
func TestCheckStaticRejectsClusterFlags(t *testing.T) {
	cl, err := cloud.Resolve(cloud.Options{Spec: cloud.DefaultName})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"spot-frac", "zones", "full-repack", "repack-workers",
		"repack-cache", "horizon", "gap", "life", "boot",
	} {
		err := checkStatic(map[string]bool{name: true}, cl)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s on the static path: got %v, want an error naming it", name, err)
		}
	}
	static := map[string]bool{"users": true, "seed": true, "csv": true, "top": true, "cloud": true, "table": true}
	if err := checkStatic(static, cl); err != nil {
		t.Errorf("static flags rejected: %v", err)
	}
	zoned, err := cloud.Resolve(cloud.Options{Spec: "gcp:n2:zone=3"})
	if err != nil {
		t.Fatal(err)
	}
	if checkStatic(nil, zoned) == nil {
		t.Error("zone= in -cloud accepted on the static path")
	}
}
