// Package flight holds the one table of in-flight calls the repository
// needs: concurrent requests for the same key share a single execution.
// The scheduler uses it to coalesce requests for a campaign cell and the
// local executor to run one golden reference per (chip, benchmark). What
// a waiter does with the leader's outcome (retry, rejoin, count) stays
// with the caller.
package flight

import (
	"context"
	"sync"
)

// Table deduplicates calls by key. The zero value is ready to use.
type Table[K comparable, V any] struct {
	// Keep makes a successful call answer every later Do for its key — a
	// cache that is filled at most once per key. When false an entry
	// lives only while its call runs.
	Keep bool

	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one execution others may wait on.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the outcome of fn for key. The first caller for a key runs
// fn (joined is false); callers that arrive while it runs — or, with
// Keep, after it succeeded — do not run fn: they wait for the first
// caller's outcome or for their own ctx, whichever ends first, and get
// joined true. A failed call is forgotten before its waiters wake, so
// one of them may call Do again and run fn itself. fn runs without the
// table's lock held and is not canceled by ctx; it should watch a
// context of its own.
func (t *Table[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, joined bool, err error) {
	t.mu.Lock()
	if c, ok := t.calls[key]; ok {
		t.mu.Unlock()
		select {
		case <-c.done:
			return c.v, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	if t.calls == nil {
		t.calls = make(map[K]*call[V])
	}
	t.calls[key] = c
	t.mu.Unlock()

	c.v, c.err = fn()
	if c.err != nil || !t.Keep {
		t.mu.Lock()
		delete(t.calls, key)
		t.mu.Unlock()
	}
	close(c.done)
	return c.v, false, c.err
}
