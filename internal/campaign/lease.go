package campaign

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/finject"
	"repro/internal/telemetry"
)

// DefaultLeaseTTL bounds how long a worker may sit on a leased cell
// without a heartbeat before the cell is handed to someone else.
const DefaultLeaseTTL = 30 * time.Second

// leaseHistoryCap bounds the remembered outcomes of finished leases (the
// idempotence window for duplicate completions).
const leaseHistoryCap = 4096

// Task is one unit of remote work: the cell's normalized spec plus the
// stopping rule. This is everything that travels to a worker — worker
// counts and scheduling are each worker's own business, and determinism
// guarantees the result depends on nothing else.
type Task struct {
	Spec CellSpec `json:"spec"`
	// Policy carries the stopping rule in the engine's versioned Config
	// form; the cap is already resolved into Spec.Injections, and worker
	// counts are each worker's own business (workers overwrite them).
	Policy finject.Config `json:"policy"`
	// Corr is the job correlation id of the producer that queued the cell,
	// carried across the wire purely for observability: workers tag their
	// logs and spans with it so one grep reconstructs a cell's life across
	// processes. It never participates in task identity (see sameWork).
	Corr string `json:"corr,omitempty"`
	// Tenant attributes the cell for fair-share scheduling (see Lease's
	// deficit round-robin) and per-tenant queue-depth gauges. Like Corr it
	// never participates in task identity: identical cells queued by two
	// tenants are interchangeable work and coalesce, accounted to whichever
	// tenant queued first.
	Tenant string `json:"tenant,omitempty"`
}

// sameWork reports whether two tasks describe the same computation —
// the same normalized cell under the same stopping rule. Correlation
// metadata is deliberately excluded: two jobs asking for one cell are
// interchangeable work, and a late completion must be able to fulfill a
// redo queued under a different job id.
func sameWork(a, b Task) bool {
	return a.Spec == b.Spec && a.Policy.Equal(b.Policy)
}

// Lease is one granted lease: a work item plus the handle the worker
// heartbeats and completes against.
type Lease struct {
	ID   string `json:"id"`
	Task Task   `json:"task"`
	// TTLMillis tells the worker how often to heartbeat (the lease
	// expires and re-queues this far after the last heartbeat).
	TTLMillis int64 `json:"ttl_ms"`
}

// LeaseStats is a point-in-time snapshot of queue activity.
type LeaseStats struct {
	// Pending and Leased count live cells by state.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Completed, Failed and Expired count lease outcomes since
	// construction: results delivered, worker-reported errors, and leases
	// that timed out and re-queued their cell.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Expired   int64 `json:"expired"`
}

// ErrUnknownLease is returned by Complete and reported by Heartbeat when
// the lease id was never granted (or has aged out of the idempotence
// window).
var ErrUnknownLease = fmt.Errorf("campaign: unknown lease")

// leaseEntry is one live cell: pending (leaseID empty) or leased.
type leaseEntry struct {
	task    Task
	key     CellKey
	seq     int
	waiters int

	leaseID  string
	worker   string
	deadline time.Time
	attempts int

	done chan struct{}
	res  *finject.Result
	err  error
}

// leaseOutcome remembers how a finished (completed or expired) lease
// ended — and for what task — so late and duplicate completions resolve
// correctly.
type leaseOutcome struct {
	task      Task
	completed bool
}

// LeaseQueue distributes campaign cells to pull-based workers under
// expiring leases. Producers call Do and block for the result; workers
// call Lease, Heartbeat and Complete. A lease that outlives its TTL
// without a heartbeat re-queues its cell, so a dead worker never loses a
// cell — and because execution is deterministic, a late completion from a
// worker presumed dead is byte-identical to the redo and is accepted.
// Cells are handed out largest-first (LPT order, see planner.go) so the
// fleet's makespan stays near the balanced optimum.
type LeaseQueue struct {
	ttl time.Duration
	now func() time.Time

	mu        sync.Mutex
	seq       int
	nextLease int
	// nonce makes lease ids unique to this queue. A worker that fails
	// over to another server (or outlives a restart) retries its
	// Complete there; with bare sequence numbers the id would name
	// whatever cell the new queue happened to lease under that number,
	// and the cell would be settled with another cell's result.
	nonce     string
	entries   map[CellKey]*leaseEntry
	leased    map[string]*leaseEntry // active leases by id
	history   map[string]leaseOutcome
	histOrder []string
	wake      chan struct{} // closed and replaced when work arrives

	// Fair-share state (deficit round-robin across tenants, see Lease).
	// ring holds every tenant ever seen, in first-activation order, and
	// ringPos is the persistent round-robin cursor; deficit carries each
	// tenant's unspent service credit while it stays backlogged, and
	// weights scale the per-round credit (default 1).
	weights map[string]int
	deficit map[string]int64
	ring    []string
	ringPos int

	// lastTenantPending mirrors lastPending per tenant for the
	// fi_lease_queue_depth_tenant gauge's delta accounting.
	lastTenantPending map[string]int

	// Outcome counters are atomics so monitoring paths can read them
	// without contending for q.mu (they are still only written under it).
	completed, failed, expired atomic.Int64

	// lastPending/lastLeased remember this queue's previous contribution
	// to the fleet-wide depth gauges, so multiple queues in one process
	// (tests, embedded servers) aggregate additively instead of fighting
	// over an absolute Set.
	lastPending, lastLeased int
}

// NewLeaseQueue builds a queue whose leases expire ttl after their last
// heartbeat (DefaultLeaseTTL when ttl <= 0).
func NewLeaseQueue(ttl time.Duration) *LeaseQueue {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	var nonce [4]byte
	_, _ = rand.Read(nonce[:]) // without entropy ids degrade to bare per-queue sequence numbers
	return &LeaseQueue{
		ttl:               ttl,
		now:               time.Now,
		nonce:             hex.EncodeToString(nonce[:]),
		entries:           make(map[CellKey]*leaseEntry),
		leased:            make(map[string]*leaseEntry),
		history:           make(map[string]leaseOutcome),
		wake:              make(chan struct{}),
		weights:           make(map[string]int),
		deficit:           make(map[string]int64),
		lastTenantPending: make(map[string]int),
	}
}

// SetWeight sets a tenant's fair-share weight (clamped to >= 1). A
// tenant with weight w receives w times the service credit of a
// weight-1 tenant per round-robin visit while both stay backlogged.
func (q *LeaseQueue) SetWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	q.weights[tenant] = weight
	q.mu.Unlock()
}

// noteTenantLocked adds a tenant to the round-robin ring the first time
// work arrives for it. Tenants are never removed: the ring is bounded
// by the operator's tenant table and a stable ring keeps the visit
// order deterministic. Callers hold q.mu.
func (q *LeaseQueue) noteTenantLocked(tenant string) {
	for _, t := range q.ring {
		if t == tenant {
			return
		}
	}
	q.ring = append(q.ring, tenant)
}

// Wake returns a channel that closes when new work may be available —
// the idle-wait primitive behind the lease endpoint's long poll. Grab a
// fresh channel after every wakeup.
func (q *LeaseQueue) Wake() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wake
}

// wakeLocked wakes every parked Wake waiter. Callers hold q.mu.
func (q *LeaseQueue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// syncGaugesLocked publishes this queue's current pending/leased counts
// to the fleet gauges as deltas against its previous contribution.
// Callers hold q.mu.
func (q *LeaseQueue) syncGaugesLocked() {
	pending := 0
	perTenant := make(map[string]int)
	for _, e := range q.entries {
		if e.leaseID == "" {
			pending++
			perTenant[tenantLabel(e.task.Tenant)]++
		}
	}
	leased := len(q.leased)
	telemetry.LeaseQueueDepth.Add(int64(pending - q.lastPending))
	telemetry.LeaseOutstanding.Add(int64(leased - q.lastLeased))
	q.lastPending, q.lastLeased = pending, leased
	for t, n := range perTenant {
		if d := n - q.lastTenantPending[t]; d != 0 {
			telemetry.LeaseTenantDepth.With(t).Add(int64(d))
		}
	}
	for t, last := range q.lastTenantPending {
		if _, live := perTenant[t]; !live && last != 0 {
			telemetry.LeaseTenantDepth.With(t).Add(int64(-last))
		}
	}
	q.lastTenantPending = perTenant
}

// tenantLabel maps the empty tenant (unauthenticated single-tenant
// servers) to the label value the metric catalog documents.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// Do publishes the task (joining an identical cell already queued) and
// blocks until a worker completes it or ctx ends. Abandoning a cell no
// other producer waits for removes it from the queue unless a worker
// already holds its lease — then the (deterministic, thus still valid)
// result is simply dropped when it arrives.
func (q *LeaseQueue) Do(ctx context.Context, t Task) (*finject.Result, error) {
	t.Spec = t.Spec.Normalize()
	key := t.Spec.Key()
	q.mu.Lock()
	e, ok := q.entries[key]
	if !ok {
		e = &leaseEntry{task: t, key: key, seq: q.seq, done: make(chan struct{})}
		q.seq++
		q.entries[key] = e
		q.noteTenantLocked(t.Tenant)
		q.wakeLocked()
	}
	e.waiters++
	q.syncGaugesLocked()
	q.mu.Unlock()

	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
		q.mu.Lock()
		e.waiters--
		if e.waiters == 0 && e.leaseID == "" && q.entries[key] == e {
			delete(q.entries, key)
		}
		q.syncGaugesLocked()
		q.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Lease grants up to max pending cells to the worker, renewing the
// queue's notion of time first so expired leases re-queue before the pop.
// With one tenant (or none) the pop is the classic LPT schedule: max == 1
// grants the single largest pending cell, and max > 1 plans cost-balanced
// shards over the whole backlog and grants one shard, so a multi-cell
// worker gets a representative mix instead of starving the rest of the
// fleet of large cells. With multiple backlogged tenants the pop switches
// to weighted deficit round-robin across tenants — each visit credits a
// tenant quantum x weight (quantum = the largest pending cell cost, so
// every backlogged tenant advances every round) and grants cells, in LPT
// order within the tenant, while credit lasts. That bounds any tenant's
// normalized service deficit by one quantum per unit weight while
// degenerating to exactly the legacy LPT order when only one tenant has
// work.
func (q *LeaseQueue) Lease(worker string, max int) []Lease {
	if max <= 0 {
		max = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()

	pending := q.pendingLocked()
	if len(pending) == 0 {
		return nil
	}
	tenants := make(map[string]bool, 1)
	for _, e := range pending {
		tenants[e.task.Tenant] = true
	}
	var take []*leaseEntry
	switch {
	case len(tenants) > 1 && len(pending) > max:
		take = q.drrSelectLocked(pending, max)
	case max == 1 || len(pending) <= max:
		take = pending
		if len(take) > max {
			take = take[:max]
		}
	default:
		specs := make([]CellSpec, len(pending))
		byKey := make(map[CellKey]*leaseEntry, len(pending))
		for i, e := range pending {
			specs[i] = e.task.Spec
			byKey[e.key] = e
		}
		shards := PlanShards(specs, (len(pending)+max-1)/max)
		for _, s := range shards[0] {
			take = append(take, byKey[s.Key()])
		}
		if len(take) > max {
			take = take[:max]
		}
	}

	now := q.now()
	leases := make([]Lease, 0, len(take))
	for _, e := range take {
		q.nextLease++
		e.leaseID = fmt.Sprintf("lease-%s-%06d", q.nonce, q.nextLease)
		e.worker = worker
		e.deadline = now.Add(q.ttl)
		q.leased[e.leaseID] = e
		leases = append(leases, Lease{ID: e.leaseID, Task: e.task, TTLMillis: q.ttl.Milliseconds()})
	}
	telemetry.LeasesGranted.Add(int64(len(leases)))
	q.syncGaugesLocked()
	return leases
}

// pendingLocked returns the pending entries in LPT order. Callers hold
// q.mu.
func (q *LeaseQueue) pendingLocked() []*leaseEntry {
	var pending []*leaseEntry
	for _, e := range q.entries {
		if e.leaseID == "" {
			pending = append(pending, e)
		}
	}
	sortLPT(pending)
	return pending
}

// drrSelectLocked picks up to max entries by weighted deficit
// round-robin across tenants. pending must be LPT-sorted (so each
// tenant's sub-queue inherits LPT order) and span more than one tenant.
// The quantum is the largest pending cell cost: a full round then
// credits every backlogged tenant enough to release at least its head
// cell, so no tenant is ever starved and the normalized service gap
// between any two continuously-backlogged tenants stays within one
// quantum per unit weight. A tenant visited with nothing pending
// forfeits its accumulated credit (standard DRR: idle flows do not bank
// service). Callers hold q.mu.
func (q *LeaseQueue) drrSelectLocked(pending []*leaseEntry, max int) []*leaseEntry {
	sub := make(map[string][]*leaseEntry)
	var quantum int64
	for _, e := range pending {
		sub[e.task.Tenant] = append(sub[e.task.Tenant], e)
		if c := shardCost(e.task.Spec); c > quantum {
			quantum = c
		}
	}
	if quantum < 1 {
		quantum = 1
	}
	take := make([]*leaseEntry, 0, max)
	remaining := len(pending)
	for len(take) < max && remaining > 0 {
		t := q.ring[q.ringPos%len(q.ring)]
		queue := sub[t]
		if len(queue) == 0 {
			q.deficit[t] = 0
			q.ringPos = (q.ringPos + 1) % len(q.ring)
			continue
		}
		w := q.weights[t]
		if w < 1 {
			w = 1
		}
		// Credit on demand: one quantum x weight when the banked deficit
		// no longer covers the head cell. quantum >= every cell cost, so
		// a single credit always releases at least the head.
		if q.deficit[t] < shardCost(queue[0].task.Spec) {
			q.deficit[t] += quantum * int64(w)
		}
		for len(queue) > 0 && len(take) < max && q.deficit[t] >= shardCost(queue[0].task.Spec) {
			q.deficit[t] -= shardCost(queue[0].task.Spec)
			take = append(take, queue[0])
			queue = queue[1:]
			remaining--
		}
		sub[t] = queue
		// Advance only when this tenant's budget or backlog is spent; a
		// grant truncated by max leaves the cursor here so the unspent
		// deficit carries into the next Lease call instead of evaporating.
		if len(queue) == 0 || q.deficit[t] < shardCost(queue[0].task.Spec) {
			q.ringPos = (q.ringPos + 1) % len(q.ring)
		}
	}
	return take
}

// Heartbeat extends the lease's deadline by one TTL and reports whether
// the lease is still live — false tells the worker its cell was re-queued
// (or already completed) and further work on it is wasted.
func (q *LeaseQueue) Heartbeat(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	q.syncGaugesLocked()
	e, ok := q.leased[id]
	if !ok {
		return false
	}
	e.deadline = q.now().Add(q.ttl)
	telemetry.LeaseHeartbeats.Inc()
	return true
}

// Complete resolves a lease with a result or a worker-reported error
// (errMsg non-empty). It is idempotent: completing the same lease twice is
// a no-op, and a late completion from a lease that already expired still
// fulfills the cell if no one else finished it first — determinism makes
// every completion of a cell interchangeable. Only a lease id that was
// never granted errors.
func (q *LeaseQueue) Complete(id string, res *finject.Result, errMsg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()

	defer q.syncGaugesLocked()
	if e, ok := q.leased[id]; ok {
		q.fulfillLocked(e, res, errMsg)
		return nil
	}
	h, ok := q.history[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownLease, id)
	}
	if h.completed {
		return nil // duplicate completion
	}
	// The lease expired. If the *same* task is still live (pending again
	// or re-leased), accept this completion and retire the redo. The
	// task comparison matters: the live entry could be a later request
	// for the same cell under a tighter stopping rule, which this
	// result — computed under the old rule — would not satisfy.
	if e, live := q.entries[h.task.Spec.Key()]; live && sameWork(e.task, h.task) {
		q.fulfillLocked(e, res, errMsg)
	}
	return nil
}

// fulfillLocked delivers a result (or error) to the entry's waiters and
// retires the entry and its active lease, if any. Callers hold q.mu.
func (q *LeaseQueue) fulfillLocked(e *leaseEntry, res *finject.Result, errMsg string) {
	if errMsg != "" {
		e.err = fmt.Errorf("campaign: worker %s failed %s: %s", e.worker, e.task.Spec, errMsg)
		q.failed.Add(1)
		telemetry.LeaseFailures.Inc()
	} else {
		e.res = res
		q.completed.Add(1)
		telemetry.LeaseCompletions.Inc()
	}
	if e.leaseID != "" {
		q.recordLocked(e.leaseID, leaseOutcome{task: e.task, completed: true})
		delete(q.leased, e.leaseID)
		e.leaseID = ""
	}
	delete(q.entries, e.key)
	close(e.done)
}

// expireLocked re-queues every leased cell whose deadline has passed —
// unless no producer waits for it anymore, in which case the cell is
// dropped instead of burning another worker on an unwanted result.
// Callers hold q.mu.
func (q *LeaseQueue) expireLocked() {
	now := q.now()
	for id, e := range q.leased {
		if !e.deadline.Before(now) {
			continue
		}
		q.recordLocked(id, leaseOutcome{task: e.task})
		delete(q.leased, id)
		e.leaseID = ""
		e.worker = ""
		e.attempts++
		q.expired.Add(1)
		telemetry.LeaseExpiries.Inc()
		if e.waiters == 0 {
			delete(q.entries, e.key)
		}
	}
}

// recordLocked remembers a finished lease's outcome within the bounded
// idempotence window. Callers hold q.mu.
func (q *LeaseQueue) recordLocked(id string, out leaseOutcome) {
	q.history[id] = out
	q.histOrder = append(q.histOrder, id)
	for len(q.histOrder) > leaseHistoryCap {
		delete(q.history, q.histOrder[0])
		q.histOrder = q.histOrder[1:]
	}
}

// Stats snapshots the queue.
func (q *LeaseQueue) Stats() LeaseStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	q.syncGaugesLocked()
	st := LeaseStats{Completed: q.completed.Load(), Failed: q.failed.Load(), Expired: q.expired.Load()}
	st.Leased = len(q.leased)
	for _, e := range q.entries {
		if e.leaseID == "" {
			st.Pending++
		}
	}
	return st
}
