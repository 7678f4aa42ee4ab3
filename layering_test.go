package nestless

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Sides of the import graph. The datapath (Figs. 2–8 and 10–15) and the
// cost model (Fig. 9 and its extensions) share only the shared layer;
// only the top layer may reach both.
const (
	shared   = "shared"
	datapath = "datapath"
	cost     = "cost"
	top      = "top"
)

type layer struct {
	side string
	rank int
}

// layers ranks every package under internal/, cmd/ and examples/. A
// package may import only packages of strictly lower rank, on its own
// side or the shared one; top-side packages may import either side.
var layers = map[string]layer{
	"internal/sim":         {shared, 0},
	"internal/cpuacct":     {shared, 0},
	"internal/parallel":    {shared, 0},
	"internal/report":      {shared, 0},
	"internal/cli/clitest": {shared, 0},
	"internal/telemetry":   {shared, 1},
	"internal/faults":      {shared, 2},
	"internal/golden":      {shared, 2},
	"internal/cli":         {shared, 3},
	"cmd/benchjson":        {shared, 4},

	"internal/netsim":         {datapath, 10},
	"internal/virtio":         {datapath, 11},
	"internal/container":      {datapath, 11},
	"internal/netperf":        {datapath, 11},
	"internal/apps/kafka":     {datapath, 11},
	"internal/apps/memcached": {datapath, 11},
	"internal/apps/nginx":     {datapath, 11},
	"internal/hostlo":         {datapath, 12},
	"internal/cni":            {datapath, 12},
	"internal/vmm":            {datapath, 13},
	"internal/core":           {datapath, 14},
	"internal/overlay":        {datapath, 14},
	"internal/brfusion":       {datapath, 15},
	"internal/hostlocni":      {datapath, 15},
	"internal/kube":           {datapath, 16},
	"internal/scenario":       {datapath, 17},
	"cmd/nestctl":             {datapath, 18},
	"examples/crossvmpod":     {datapath, 18},
	"examples/quickstart":     {datapath, 18},

	"internal/trace":       {cost, 10},
	"internal/cloudsim":    {cost, 11},
	"internal/ctrace":      {cost, 11},
	"internal/cloud":       {cost, 12},
	"internal/cluster":     {cost, 12},
	"internal/shard":       {cost, 13},
	"internal/snapshot":    {cost, 13},
	"cmd/whatif":           {cost, 14},
	"cmd/ctracegen":        {cost, 14},
	"examples/costplanner": {cost, 14},

	"internal/figures": {top, 20},
	"cmd/costsim":      {top, 21},
	"cmd/figures":      {top, 21},
	// faas samples boot times through figures.BootSamples.
	"examples/faas": {top, 21},
}

// mayImport reports whether a package on side from may import one on
// side to, ranks aside.
func mayImport(from, to string) bool {
	return from == top || to == shared || from == to
}

// TestLayering parses the non-test imports of every package and checks
// them against the layer table: no import of an equal or higher rank, no
// import across the datapath/cost divide, no package without a rank and
// no rank for a package that is gone.
func TestLayering(t *testing.T) {
	const module = "nestless/"
	imports := map[string]map[string]bool{} // package dir -> module imports
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Dir(path))
			if imports[pkg] == nil {
				imports[pkg] = map[string]bool{}
			}
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				if strings.HasPrefix(p, module) {
					imports[pkg][strings.TrimPrefix(p, module)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	pkgs := make([]string, 0, len(imports))
	for pkg := range imports {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		from, ok := layers[pkg]
		if !ok {
			t.Errorf("%s has no layer: give it a rank in layers", pkg)
			continue
		}
		deps := make([]string, 0, len(imports[pkg]))
		for dep := range imports[pkg] {
			deps = append(deps, dep)
		}
		sort.Strings(deps)
		for _, dep := range deps {
			to, ok := layers[dep]
			switch {
			case !ok:
				t.Errorf("%s imports %s, which has no layer", pkg, dep)
			case !mayImport(from.side, to.side):
				t.Errorf("%s (%s) imports %s (%s): cross-side import", pkg, from.side, dep, to.side)
			case to.rank >= from.rank:
				t.Errorf("%s (rank %d) imports %s (rank %d): imports must point to a lower rank", pkg, from.rank, dep, to.rank)
			}
		}
	}
	for pkg := range layers {
		if _, ok := imports[pkg]; !ok {
			t.Errorf("layers ranks %s, which has no Go files", pkg)
		}
	}
}
