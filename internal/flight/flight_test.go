package flight

import (
	"context"
	"errors"
	"sync"
	"testing"
)

type outcome struct {
	v   int
	err error
}

// leader starts a Do for key whose fn blocks until release is closed and
// returns (v, err); it returns once fn is running, with a channel that
// yields the leader's own outcome.
func leader(t *testing.T, tab *Table[string, int], key string, v int, err error) (release chan struct{}, done chan outcome) {
	t.Helper()
	release, done = make(chan struct{}), make(chan outcome, 1)
	running := make(chan struct{})
	go func() {
		got, joined, gotErr := tab.Do(context.Background(), key, func() (int, error) {
			close(running)
			<-release
			return v, err
		})
		if joined {
			t.Error("the first caller was told it joined")
		}
		done <- outcome{got, gotErr}
	}()
	<-running
	return release, done
}

// waitingCtx reports on waiting when Do asks for its Done channel, which
// Do does only once it has found a call to wait on.
type waitingCtx struct {
	context.Context
	waiting chan<- struct{}
}

func (c waitingCtx) Done() <-chan struct{} {
	c.waiting <- struct{}{}
	return c.Context.Done()
}

func noCall(t *testing.T) func() (int, error) {
	return func() (int, error) {
		t.Error("fn ran for a key that has a call in flight or kept")
		return 0, nil
	}
}

func TestJoinersShareOneCall(t *testing.T) {
	var tab Table[string, int]
	release, done := leader(t, &tab, "k", 7, nil)

	var wg sync.WaitGroup
	waiting := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, joined, err := tab.Do(waitingCtx{context.Background(), waiting}, "k", noCall(t))
			if v != 7 || !joined || err != nil {
				t.Errorf("joiner got %d, %v, %v", v, joined, err)
			}
		}()
	}
	// Another key is never blocked by the call in flight.
	if v, joined, err := tab.Do(context.Background(), "other", func() (int, error) { return 1, nil }); v != 1 || joined || err != nil {
		t.Fatalf("other key got %d, %v, %v", v, joined, err)
	}
	for i := 0; i < 4; i++ {
		<-waiting
	}
	close(release)
	wg.Wait()
	if got := <-done; got != (outcome{7, nil}) {
		t.Fatalf("leader got %v", got)
	}
	// Keep is off: the entry lived only while the call ran.
	if v, joined, _ := tab.Do(context.Background(), "k", func() (int, error) { return 8, nil }); v != 8 || joined {
		t.Fatalf("a finished call answered a later one: %d, %v", v, joined)
	}
}

func TestWaiterCancelLeavesLeaderRunning(t *testing.T) {
	var tab Table[string, int]
	release, done := leader(t, &tab, "k", 7, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, joined, err := tab.Do(ctx, "k", noCall(t)); !joined || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got joined=%v err=%v", joined, err)
	}
	close(release)
	if got := <-done; got != (outcome{7, nil}) {
		t.Fatalf("leader got %v after a waiter gave up", got)
	}
}

func TestFailureForgottenBeforeWaitersWake(t *testing.T) {
	tab := Table[string, int]{Keep: true}
	boom := errors.New("boom")
	release, done := leader(t, &tab, "k", 0, boom)

	retried, waiting := make(chan int, 1), make(chan struct{})
	go func() {
		_, joined, err := tab.Do(waitingCtx{context.Background(), waiting}, "k", noCall(t))
		if !joined || err != boom {
			t.Errorf("waiter got joined=%v err=%v", joined, err)
		}
		// The failed entry is gone by now: this call leads.
		v, joined, err := tab.Do(context.Background(), "k", func() (int, error) { return 9, nil })
		if joined || err != nil {
			t.Errorf("retry got joined=%v err=%v", joined, err)
		}
		retried <- v
	}()
	<-waiting
	close(release)
	if got := <-done; got.err != boom {
		t.Fatalf("leader got %v", got)
	}
	if v := <-retried; v != 9 {
		t.Fatalf("retry returned %d", v)
	}
}

func TestKeepAnswersLaterCalls(t *testing.T) {
	tab := Table[string, int]{Keep: true}
	if v, joined, err := tab.Do(context.Background(), "k", func() (int, error) { return 5, nil }); v != 5 || joined || err != nil {
		t.Fatalf("first call got %d, %v, %v", v, joined, err)
	}
	if v, joined, err := tab.Do(context.Background(), "k", noCall(t)); v != 5 || !joined || err != nil {
		t.Fatalf("kept call got %d, %v, %v", v, joined, err)
	}
}
