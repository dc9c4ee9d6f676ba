// Package ctxflow checks that cancellation reaches every blocking entry
// point of the engine's library packages. The engine's public contract is
// Search(ctx, Query) with cancellation flowing through walks, pipelines and
// the HTTP layer; an entry point that swallows the caller's context — or
// manufactures its own with context.Background()/TODO() — silently becomes
// uncancellable.
//
// Two rules, scoped to the library packages in ScopePrefixes:
//
//  1. context.Background() and context.TODO() are findings outside main
//     packages and tests.
//  2. An exported function without a context.Context (or *http.Request)
//     parameter that directly calls a context-taking function is a
//     finding: it should accept and forward a caller context.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ScopePrefixes lists the import paths (exact, or prefix when ending in
// "/") whose packages the pass checks: the blocking library surface of the
// engine. Exported so fixture tests can put their testdata packages in
// scope.
var ScopePrefixes = []string{
	"repro/kws",
	"repro/internal/core",
	"repro/internal/httpapi",
	"repro/internal/search/",
}

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "check that contexts flow through blocking library entry points\n\n" +
		"Reports context.Background()/TODO() in library packages and exported\n" +
		"functions that call context-taking callees without accepting a\n" +
		"context.Context themselves.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) || pass.Pkg.Name() == "main" {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBackground(pass, fd)
			checkForwarding(pass, fd)
		}
	}
	return nil, nil
}

func inScope(path string) bool {
	for _, p := range ScopePrefixes {
		if path == strings.TrimSuffix(p, "/") || strings.HasPrefix(path, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}

// checkBackground reports manufactured contexts anywhere in the function.
func checkBackground(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch analysis.CalleeName(pass.TypesInfo, call) {
		case "context.Background", "context.TODO":
			pass.Reportf(call.Pos(), "%s manufactures a context in a library package; %s should accept and forward its caller's context", analysis.FuncDeclName(fd), analysis.FuncDeclName(fd))
		}
		return true
	})
}

// checkForwarding reports exported entry points that call context-taking
// callees without carrying a context themselves.
func checkForwarding(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || carriesContext(pass.TypesInfo, fd) {
		return
	}
	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.Callee(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() != nil && callee.Pkg().Path() == "context" {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 || !analysis.IsContext(sig.Params().At(0).Type()) {
			return true
		}
		reported = true
		pass.Reportf(fd.Name.Pos(), "exported %s calls %s, which takes a context.Context, but has no context parameter to forward", analysis.FuncDeclName(fd), callee.Name())
		return false
	})
}

// carriesContext reports whether the function has a context.Context
// parameter, or an *http.Request (whose Context() the handler forwards).
func carriesContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		if analysis.IsContext(tv.Type) || analysis.TypeName(tv.Type) == "net/http.Request" {
			return true
		}
	}
	return false
}
