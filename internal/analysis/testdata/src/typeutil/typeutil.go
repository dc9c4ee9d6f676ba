// Package typeutil is a fixture for the shared go/types helpers: a named
// type with a sync.Pool field, a context-taking method, a constructor and
// calls of several shapes.
package typeutil

import (
	"context"
	"sync"
)

type T struct {
	Pool sync.Pool
}

// NewT builds a T.
func NewT() *T { return &T{} }

func (t *T) Get(ctx context.Context) any {
	_ = ctx
	return t.Pool.Get()
}

func useAll() any {
	t := NewT()
	v := t.Get(context.Background())
	f := func() any { return v }
	return f()
}
