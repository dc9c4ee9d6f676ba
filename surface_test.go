package repro

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the public-surface goldens")

// TestPublicSurface pins the exported declarations of the library's public
// package and of the HTTP wire types, one line per declaration, sorted, in
// the manner of Go's api/go1.*.txt files. Any change to either surface —
// an added, removed or re-signed name — shows in the golden's diff.
// Regenerate with:
//
//	go test -run TestPublicSurface -update .
func TestPublicSurface(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dir    string
		files  []string // nil means every non-test file of dir
		golden string
	}{
		{"kws", "kws", nil, "kws/testdata/api.golden"},
		{"httpapi", "internal/httpapi", []string{"wire.go"}, "internal/httpapi/testdata/wire.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := renderSurface(tc.dir, tc.files)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(tc.golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("the exported surface of %s differs from %s (run with -update if the change is intended):\n%s",
					tc.dir, tc.golden, lineDiff(string(want), string(got)))
			}
		})
	}
}

// renderSurface parses the package's files and renders every exported
// declaration as one "pkg NAME, ..." line, sorted.
func renderSurface(dir string, files []string) ([]byte, error) {
	if files == nil {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				files = append(files, filepath.Base(m))
			}
		}
	}
	fset := token.NewFileSet()
	var lines []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		prefix := "pkg " + f.Name.Name + ", "
		for _, decl := range f.Decls {
			for _, l := range declLines(fset, decl) {
				lines = append(lines, prefix+l)
			}
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n"), nil
}

// declLines renders one top-level declaration's exported parts.
func declLines(fset *token.FileSet, decl ast.Decl) []string {
	node := func(n ast.Node) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, n); err != nil {
			panic(err)
		}
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		sig := strings.TrimPrefix(node(d.Type), "func")
		if d.Recv == nil {
			return []string{"func " + d.Name.Name + sig}
		}
		recv := d.Recv.List[0].Type
		base := recv
		if star, ok := base.(*ast.StarExpr); ok {
			base = star.X
		}
		if id, ok := base.(*ast.Ident); !ok || !id.IsExported() {
			return nil
		}
		return []string{"method (" + node(recv) + ") " + d.Name.Name + sig}
	case *ast.GenDecl:
		var out []string
		var lastType, lastValue ast.Expr
		for idx, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, typeLines(node, s)...)
				}
			case *ast.ValueSpec:
				typ, values := s.Type, s.Values
				if d.Tok == token.CONST && typ == nil && len(values) == 0 {
					typ, values = lastType, []ast.Expr{lastValue} // implicit repetition
				}
				if d.Tok == token.CONST && len(values) > 0 {
					lastType, lastValue = typ, values[0]
				}
				for i, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					l := d.Tok.String() + " " + name.Name
					if typ != nil {
						l += " " + node(typ)
					}
					if i < len(values) && values[i] != nil {
						v := node(values[i])
						l += " = " + v
						if strings.Contains(v, "iota") {
							l += fmt.Sprintf(" (iota = %d)", idx)
						}
					}
					out = append(out, l)
				}
			}
		}
		return out
	}
	return nil
}

// typeLines renders a type declaration: one line for the type itself and,
// for structs and interfaces, one more per exported field or method.
func typeLines(node func(ast.Node) string, s *ast.TypeSpec) []string {
	head := "type " + s.Name.Name
	if s.TypeParams != nil {
		head += node(s.TypeParams)
	}
	if s.Assign.IsValid() {
		head += " ="
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		out := []string{head + " struct"}
		for _, f := range t.Fields.List {
			tag := ""
			if f.Tag != nil {
				tag = " " + f.Tag.Value
			}
			if len(f.Names) == 0 { // embedded
				out = append(out, head+" struct, embedded "+node(f.Type)+tag)
			}
			for _, n := range f.Names {
				if n.IsExported() {
					out = append(out, head+" struct, "+n.Name+" "+node(f.Type)+tag)
				}
			}
		}
		return out
	case *ast.InterfaceType:
		out := []string{head + " interface"}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 { // embedded
				out = append(out, head+" interface, embedded "+node(m.Type))
			}
			for _, n := range m.Names {
				if n.IsExported() {
					out = append(out, head+" interface, "+n.Name+strings.TrimPrefix(node(m.Type), "func"))
				}
			}
		}
		return out
	default:
		return []string{head + " " + node(s.Type)}
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
