// Package ctx exercises the context-propagation rules on a package the
// test places in ScopePrefixes.
package ctx

import (
	"context"
	"net/http"
)

// DoContext is the cancellable variant every entry point should forward to.
func DoContext(ctx context.Context, n int) int {
	select {
	case <-ctx.Done():
		return 0
	default:
		return n
	}
}

func Do(n int) int { // want `exported Do calls DoContext, which takes a context.Context`
	return DoContext(context.Background(), n) // want `Do manufactures a context in a library package`
}

// DoLegacy is a compatibility shim. The marker below used to exempt it; the
// rule has no escape hatch any more.
//
// Deprecated: use DoContext.
func DoLegacy(n int) int { // want `exported DoLegacy calls DoContext, which takes a context.Context`
	return DoContext(context.Background(), n) // want `DoLegacy manufactures a context in a library package`
}

// helper is unexported, so only the manufactured context is reported.
func helper(n int) int {
	return DoContext(context.TODO(), n) // want `helper manufactures a context in a library package`
}

// Forwarded carries and forwards its caller's context.
func Forwarded(ctx context.Context, n int) int {
	return DoContext(ctx, n)
}

// Handle forwards the request's context, the HTTP-handler equivalent.
func Handle(w http.ResponseWriter, r *http.Request) {
	DoContext(r.Context(), 1)
}

// Pure never blocks on a context-taking callee: nothing to forward.
func Pure(n int) int { return n * 2 }

//kwslint:ignore ctxflow fixture models a fire-and-forget shim that is intentionally uncancellable
func Fire(n int) int { return DoContext(context.Background(), n) }
