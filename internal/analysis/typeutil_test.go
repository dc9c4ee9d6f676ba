package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

func loadTypeutil(t *testing.T) *Package {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "./src/typeutil")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return pkgs[0]
}

func funcDecls(pkg *Package) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

func TestTypeHelpers(t *testing.T) {
	pkg := loadTypeutil(t)
	tObj := pkg.Types.Scope().Lookup("T")
	if tObj == nil {
		t.Fatal("fixture type T not found")
	}
	tType := tObj.Type()

	if Deref(types.NewPointer(types.NewPointer(tType))) != tType {
		t.Error("Deref did not remove pointer indirections")
	}
	wantName := pkg.PkgPath + ".T"
	if got := TypeName(types.NewPointer(tType)); got != wantName {
		t.Errorf("TypeName = %q, want %q", got, wantName)
	}
	if TypeName(nil) != "" || TypeName(types.Typ[types.Int].Underlying()) != "" {
		t.Error("TypeName of nil/unnamed types should be empty")
	}
	if got := TypeName(types.Universe.Lookup("error").Type()); got != "error" {
		t.Errorf("TypeName(error) = %q, want error", got)
	}

	st := tType.Underlying().(*types.Struct)
	if !IsSyncPool(st.Field(0).Type()) {
		t.Error("IsSyncPool missed the Pool field")
	}
	if IsSyncPool(tType) {
		t.Error("IsSyncPool matched a non-pool type")
	}

	get, _, _ := types.LookupFieldOrMethod(tType, true, pkg.Types, "Get")
	getFn := get.(*types.Func)
	if !IsContext(getFn.Type().(*types.Signature).Params().At(0).Type()) {
		t.Error("IsContext missed Get's context parameter")
	}
	if got := TypeName(getFn.Type().(*types.Signature).Recv().Type()); got != wantName {
		t.Errorf("TypeName(Get's receiver) = %q, want %q", got, wantName)
	}
}

func TestCalleeResolution(t *testing.T) {
	pkg := loadTypeutil(t)
	decls := funcDecls(pkg)

	var names []string
	ast.Inspect(decls["useAll"].Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			names = append(names, CalleeName(pkg.TypesInfo, call))
		}
		return true
	})
	joined := strings.Join(names, "|")
	for _, want := range []string{
		pkg.PkgPath + ".NewT",
		"(*" + pkg.PkgPath + ".T).Get",
		"context.Background",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("callee names %q missing %q", joined, want)
		}
	}
	// The f() call is a function value: no static callee.
	if !strings.Contains(joined, "||") && names[len(names)-1] != "" {
		t.Errorf("function-value call should resolve to no callee: %q", joined)
	}
}

func TestObjectOfAndDeclHelpers(t *testing.T) {
	pkg := loadTypeutil(t)
	decls := funcDecls(pkg)

	if got := FuncDeclName(decls["Get"]); got != "T.Get" {
		t.Errorf("FuncDeclName(Get) = %q, want T.Get", got)
	}
	if got := FuncDeclName(decls["NewT"]); got != "NewT" {
		t.Errorf("FuncDeclName(NewT) = %q, want NewT", got)
	}
}
