package campaign

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/finject"
)

// fakeClock drives a LeaseQueue's notion of time from the test.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestQueue(ttl time.Duration) (*LeaseQueue, *fakeClock) {
	q := NewLeaseQueue(ttl)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q.now = clk.now
	return q, clk
}

func testSpec(seed uint64, injections int) CellSpec {
	return CellSpec{
		Chip: "Mini NVIDIA", Benchmark: "vectoradd",
		Injections: injections, Seed: seed,
	}.Normalize()
}

// doAsync starts Do in a goroutine and returns channels with its answer.
func doAsync(q *LeaseQueue, t Task) (<-chan *finject.Result, <-chan error) {
	resCh := make(chan *finject.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := q.Do(context.Background(), t)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// waitLease polls until the producer's Do call has made the cell visible.
func waitLease(t *testing.T, q *LeaseQueue, worker string, max int) []Lease {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if leases := q.Lease(worker, max); len(leases) > 0 {
			return leases
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cell never became leasable")
	return nil
}

func TestLeaseQueueDeliversResult(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	spec := testSpec(1, 50)
	resCh, errCh := doAsync(q, Task{Spec: spec})

	leases := waitLease(t, q, "w1", 1)
	if len(leases) != 1 || leases[0].Task.Spec != spec {
		t.Fatalf("leases %+v", leases)
	}
	if leases[0].TTLMillis != time.Minute.Milliseconds() {
		t.Fatalf("ttl_ms %d", leases[0].TTLMillis)
	}
	if err := q.Complete(leases[0].ID, fakeResult(50), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res := <-resCh; res.Injections != 50 {
		t.Fatalf("result %+v", res)
	}
	st := q.Stats()
	if st.Completed != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLeaseQueueCoalescesIdenticalCells(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	task := Task{Spec: testSpec(2, 30)}
	res1, err1 := doAsync(q, task)
	res2, err2 := doAsync(q, task)

	// Both producers must have joined the queued cell before it is leased:
	// a Do that lands after Complete queues a fresh cell nobody leases.
	key := task.Spec.Normalize().Key()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		e := q.entries[key]
		joined := e != nil && e.waiters == 2
		q.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second producer never joined the queued cell")
		}
		time.Sleep(time.Millisecond)
	}

	leases := waitLease(t, q, "w1", 8)
	if len(leases) != 1 {
		t.Fatalf("identical cells leased separately: %+v", leases)
	}
	if q.Lease("w2", 8) != nil {
		t.Fatal("second worker got the already-leased cell")
	}
	if err := q.Complete(leases[0].ID, fakeResult(30), ""); err != nil {
		t.Fatal(err)
	}
	if e := <-err1; e != nil {
		t.Fatal(e)
	}
	if e := <-err2; e != nil {
		t.Fatal(e)
	}
	if a, b := <-res1, <-res2; a != b {
		t.Fatal("waiters got different result pointers")
	}
}

func TestLeaseExpiryRequeuesCell(t *testing.T) {
	q, clk := newTestQueue(time.Minute)
	spec := testSpec(3, 40)
	resCh, errCh := doAsync(q, Task{Spec: spec})

	first := waitLease(t, q, "dead-worker", 1)
	// The worker dies: no heartbeat, no completion. One TTL later another
	// worker inherits the cell.
	clk.advance(time.Minute + time.Second)
	second := q.Lease("live-worker", 1)
	if len(second) != 1 || second[0].Task.Spec != spec {
		t.Fatalf("expired cell not re-leased: %+v", second)
	}
	if second[0].ID == first[0].ID {
		t.Fatal("re-lease reused the lease id")
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := q.Complete(second[0].ID, fakeResult(40), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res := <-resCh; res.Injections != 40 {
		t.Fatalf("result %+v", res)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	q, clk := newTestQueue(time.Minute)
	go q.Do(context.Background(), Task{Spec: testSpec(4, 20)})
	leases := waitLease(t, q, "w1", 1)

	clk.advance(45 * time.Second)
	if !q.Heartbeat(leases[0].ID) {
		t.Fatal("live lease reported dead")
	}
	clk.advance(45 * time.Second) // 90s total, but renewed at 45s
	if q.Lease("w2", 1) != nil {
		t.Fatal("heartbeated lease expired")
	}
	clk.advance(time.Minute)
	if q.Heartbeat(leases[0].ID) {
		t.Fatal("expired lease heartbeat succeeded")
	}
}

func TestDuplicateCompleteIsIdempotent(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	go q.Do(context.Background(), Task{Spec: testSpec(5, 25)})
	leases := waitLease(t, q, "w1", 1)

	if err := q.Complete(leases[0].ID, fakeResult(25), ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(leases[0].ID, fakeResult(25), ""); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if st := q.Stats(); st.Completed != 1 {
		t.Fatalf("duplicate complete double-counted: %+v", st)
	}
}

func TestLateCompleteFromExpiredLeaseStillLands(t *testing.T) {
	q, clk := newTestQueue(time.Minute)
	spec := testSpec(6, 35)
	resCh, errCh := doAsync(q, Task{Spec: spec})

	slow := waitLease(t, q, "slow-worker", 1)
	clk.advance(2 * time.Minute)
	fast := q.Lease("fast-worker", 1)
	if len(fast) != 1 {
		t.Fatal("expired cell not re-leased")
	}
	// The presumed-dead worker finishes after all: determinism makes its
	// answer identical, so it is accepted and the redo retired.
	if err := q.Complete(slow[0].ID, fakeResult(35), ""); err != nil {
		t.Fatalf("late complete rejected: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res := <-resCh; res.Injections != 35 {
		t.Fatalf("result %+v", res)
	}
	// The second worker's completion is now a duplicate: accepted, no-op.
	if err := q.Complete(fast[0].ID, fakeResult(35), ""); err != nil {
		t.Fatalf("redo complete after late landing: %v", err)
	}
	if st := q.Stats(); st.Completed != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLateCompleteUnderStalePolicyDoesNotLand(t *testing.T) {
	q, clk := newTestQueue(time.Minute)
	spec := testSpec(16, 2000)
	loose := Task{Spec: spec, Policy: finject.Config{Margin: 0.10}}
	tight := Task{Spec: spec, Policy: finject.Config{Margin: 0.01}}

	// The loose request is leased, presumed dead, redone and completed.
	_, looseErr := doAsync(q, loose)
	slow := waitLease(t, q, "slow-worker", 1)
	clk.advance(2 * time.Minute)
	fast := q.Lease("fast-worker", 1)
	if len(fast) != 1 {
		t.Fatal("expired cell not re-leased")
	}
	if err := q.Complete(fast[0].ID, fakeResult(300), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-looseErr; err != nil {
		t.Fatal(err)
	}

	// A tighter request for the same cell queues next. The slow worker's
	// late completion carries a result computed under the loose rule: it
	// must NOT fulfill the tighter task.
	tightRes, _ := doAsync(q, tight)
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tight request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Complete(slow[0].ID, fakeResult(300), ""); err != nil {
		t.Fatalf("late complete errored instead of no-op: %v", err)
	}
	select {
	case res := <-tightRes:
		t.Fatalf("stale loose-policy result fulfilled the tighter request: %+v", res)
	default:
	}
	// The tighter task is still pending and completable on its own terms.
	redo := q.Lease("w3", 1)
	if len(redo) != 1 || redo[0].Task != tight {
		t.Fatalf("tight task not leasable: %+v", redo)
	}
}

// TestLeaseQueueDoesNotJoinAcrossPolicies: a leased cell whose only
// producer walked away stays queued until its lease ends. A later
// request for the same cell under another stopping rule must not join
// it: the abandoned cell is withdrawn with its lease, the new task queues
// on its own terms, and the old lease's completion lands nowhere.
func TestLeaseQueueDoesNotJoinAcrossPolicies(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	spec := testSpec(18, 100)
	adaptive := Task{Spec: spec, Policy: finject.Config{Margin: 0.3}}
	fixed := Task{Spec: spec}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Do(ctx, adaptive)
		errCh <- err
	}()
	stale := waitLease(t, q, "slow-worker", 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}

	fixedRes, fixedErr := doAsync(q, fixed)
	fresh := waitLease(t, q, "w2", 1)
	if fresh[0].Task != fixed {
		t.Fatalf("leased %+v, want the fixed-size task", fresh[0].Task)
	}
	if q.Heartbeat(stale[0].ID) {
		t.Fatal("the withdrawn lease is still live")
	}
	if err := q.Complete(stale[0].ID, fakeResult(100), ""); err != nil {
		t.Fatalf("late complete of the withdrawn lease errored: %v", err)
	}
	select {
	case res := <-fixedRes:
		t.Fatalf("the adaptive lease's completion fulfilled the fixed-size task: %+v", res)
	default:
	}
	want := fakeResult(100)
	if err := q.Complete(fresh[0].ID, want, ""); err != nil {
		t.Fatal(err)
	}
	if err := <-fixedErr; err != nil {
		t.Fatal(err)
	}
	if res := <-fixedRes; res != want {
		t.Fatalf("fixed-size task got %+v, want its own lease's result", res)
	}
}

// TestLeaseQueueWaitsOutLiveCellUnderOtherPolicy: while a producer still
// waits for a cell under one stopping rule, a request under another rule
// neither joins it nor replaces it; it queues once the first is settled.
func TestLeaseQueueWaitsOutLiveCellUnderOtherPolicy(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	spec := testSpec(19, 100)
	adaptive := Task{Spec: spec, Policy: finject.Config{Margin: 0.3}}
	fixed := Task{Spec: spec}

	adaptiveRes, adaptiveErr := doAsync(q, adaptive)
	first := waitLease(t, q, "w1", 1)
	fixedRes, fixedErr := doAsync(q, fixed)
	time.Sleep(20 * time.Millisecond) // let the fixed-size producer reach the queue
	if leases := q.Lease("w2", 1); leases != nil {
		t.Fatalf("the fixed-size task queued beside the live adaptive one: %+v", leases)
	}
	if err := q.Complete(first[0].ID, fakeResult(40), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-adaptiveErr; err != nil {
		t.Fatal(err)
	}
	if res := <-adaptiveRes; res.Injections != 40 {
		t.Fatalf("adaptive result %+v", res)
	}
	second := waitLease(t, q, "w2", 1)
	if second[0].Task != fixed {
		t.Fatalf("leased %+v, want the fixed-size task", second[0].Task)
	}
	if err := q.Complete(second[0].ID, fakeResult(100), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-fixedErr; err != nil {
		t.Fatal(err)
	}
	if res := <-fixedRes; res.Injections != 100 {
		t.Fatalf("fixed-size result %+v", res)
	}
}

func TestAbandonedLeasedCellDroppedOnExpiry(t *testing.T) {
	q, clk := newTestQueue(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Do(ctx, Task{Spec: testSpec(17, 10)})
		errCh <- err
	}()
	waitLease(t, q, "doomed", 1)
	cancel() // the only producer walks away while the cell is leased
	<-errCh
	clk.advance(2 * time.Minute)
	if leases := q.Lease("w2", 1); leases != nil {
		t.Fatalf("abandoned cell re-leased after expiry: %+v", leases)
	}
	if st := q.Stats(); st.Pending != 0 || st.Leased != 0 || st.Expired != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCompleteUnknownLease(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	if err := q.Complete("lease-999999", fakeResult(1), ""); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("err %v, want ErrUnknownLease", err)
	}
}

func TestWorkerFailurePropagates(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	_, errCh := doAsync(q, Task{Spec: testSpec(7, 15)})
	leases := waitLease(t, q, "w1", 1)
	if err := q.Complete(leases[0].ID, nil, "simulator exploded"); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if err == nil || !contains(err.Error(), "simulator exploded") {
		t.Fatalf("err %v", err)
	}
	if st := q.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAbandonedPendingCellLeavesQueue(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Do(ctx, Task{Spec: testSpec(8, 10)})
		errCh <- err
	}()
	// Wait until the cell is visible, then abandon it before any lease.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cell never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
	if leases := q.Lease("w1", 1); leases != nil {
		t.Fatalf("abandoned cell leased: %+v", leases)
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLeaseIDsAreUniquePerQueue: a lease id granted by one queue must be
// unknown to another. A worker failing over between two fiservers
// retries Complete on the survivor; when both queues numbered their
// leases 1, 2, 3… the retry settled whichever cell the survivor had
// leased under that number with a different cell's result.
func TestLeaseIDsAreUniquePerQueue(t *testing.T) {
	grant := func(q *LeaseQueue, seed uint64) (Lease, <-chan error) {
		t.Helper()
		_, errCh := doAsync(q, Task{Spec: testSpec(seed, 10)})
		return waitLease(t, q, "w", 1)[0], errCh
	}
	a, b := NewLeaseQueue(time.Minute), NewLeaseQueue(time.Minute)
	la, aDone := grant(a, 1)
	lb, bDone := grant(b, 2)
	if la.ID == lb.ID {
		t.Fatalf("two queues granted the same lease id %q", la.ID)
	}
	if err := b.Complete(la.ID, fakeResult(10), ""); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("queue b accepted queue a's lease: %v", err)
	}
	if err := b.Complete(lb.ID, fakeResult(10), ""); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(la.ID, fakeResult(10), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOnlyLeaseReportingInjectionsFails: a worker built before
// golden-only cells decodes the task without the mark and runs an FI
// campaign; the queue fails that completion rather than store its
// injections under the golden-only key.
func TestGoldenOnlyLeaseReportingInjectionsFails(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	spec := CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", GoldenOnly: true}.Normalize()
	_, errCh := doAsync(q, Task{Spec: spec})
	leases := waitLease(t, q, "w1", 1)
	if err := q.Complete(leases[0].ID, fakeResult(2000), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !contains(err.Error(), "golden-only") {
		t.Fatalf("err %v, want the golden-only refusal", err)
	}
	if st := q.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v", st)
	}
}
