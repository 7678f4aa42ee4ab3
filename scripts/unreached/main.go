// Command unreached lists the functions under internal/ that no binary
// of the repository links: every cmd/*, examples/* and the perfbench
// program are built with inlining off (-gcflags=all=-l), so each
// function a binary can call keeps its own text symbol, and `go tool nm`
// lists those symbols. Every non-generic, non-test func declaration
// under internal/ whose symbol appears in none of them is printed with
// its position and line count, then the totals.
//
// Run it from the repository root:
//
//	go run ./scripts/unreached
//
// The count is a lower bound on dead code: an exported method of a type
// that is converted to an interface stays linked even if nothing calls
// it. Generic functions are skipped because their symbols carry type
// shapes. A listed function may still be a test oracle (a check that
// only tests call); telling those from dead accessors takes reading.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const module = "nestless"

func main() {
	linked, err := linkedSymbols()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
	funcs, err := internalFuncs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
	var n, lines int
	for _, f := range funcs {
		if linked[f.sym] {
			continue
		}
		n++
		lines += f.lines
		fmt.Printf("%s:%d\t%d\t%s\n", f.file, f.line, f.lines, f.sym)
	}
	fmt.Printf("%d functions, %d lines unreached (of %d non-generic functions under internal/)\n", n, lines, len(funcs))
}

// linkedSymbols builds every binary into a temporary directory and
// returns the union of their text symbols.
func linkedSymbols() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unreached-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	type target struct{ dir, pkg string }
	var targets []target
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			targets = append(targets, target{".", "./" + d})
		}
	}
	// perfbench is its own module, built from its own directory.
	targets = append(targets, target{"perfbench", "."})

	linked := make(map[string]bool)
	for i, t := range targets {
		bin := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, t.pkg)
		build.Dir = t.dir
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("build %s/%s: %w", t.dir, t.pkg, err)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("nm %s/%s: %w", t.dir, t.pkg, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "  addr T name": keep text symbols.
			fields := strings.Fields(sc.Text())
			if len(fields) >= 3 && (fields[1] == "T" || fields[1] == "t") {
				linked[fields[2]] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

type funcDecl struct {
	file        string
	line, lines int
	sym         string // the linker's name for it
}

// internalFuncs parses every non-test Go file under internal/ and returns
// its non-generic func declarations in file and line order (WalkDir
// walks in lexical order).
func internalFuncs() ([]funcDecl, error) {
	var out []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" || fd.Type.TypeParams != nil {
				continue
			}
			sym, ok := symbol(pkg, fd)
			if !ok {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out = append(out, funcDecl{file: path, line: start.Line, lines: end.Line - start.Line + 1, sym: sym})
		}
		return nil
	})
	return out, err
}

// symbol returns the linker's name for a declaration: pkg.F, pkg.T.M or
// pkg.(*T).M. ok is false for methods of generic types.
func symbol(pkg string, fd *ast.FuncDecl) (string, bool) {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, true
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, isPtr := typ.(*ast.StarExpr); isPtr {
		ptr, typ = true, star.X
	}
	id, isIdent := typ.(*ast.Ident)
	if !isIdent { // T[K]: a generic receiver
		return "", false
	}
	if ptr {
		return pkg + ".(*" + id.Name + ")." + fd.Name.Name, true
	}
	return pkg + "." + id.Name + "." + fd.Name.Name, true
}
