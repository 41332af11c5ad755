package campaign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// enqueue queues one cell for a tenant and returns after it is visible
// to Lease (the producer goroutine keeps waiting for the result; tests
// that never complete cells simply leak the goroutine until cancel).
func enqueue(t *testing.T, q *LeaseQueue, ctx context.Context, tenant string, seed uint64, injections int) {
	t.Helper()
	before := q.Stats().Pending
	go q.Do(ctx, Task{Spec: testSpec(seed, injections), Tenant: tenant})
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Pending == before {
		if time.Now().After(deadline) {
			t.Fatal("cell never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaseOrderIsLargestFirst(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	for _, n := range []int{100, 900, 400} {
		go q.Do(context.Background(), Task{Spec: testSpec(uint64(n), n)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Pending < 3 {
		if time.Now().After(deadline) {
			t.Fatal("cells never queued")
		}
		time.Sleep(time.Millisecond)
	}
	var got []int
	for i := 0; i < 3; i++ {
		leases := q.Lease("w", 1)
		if len(leases) != 1 {
			t.Fatalf("lease %d: %+v", i, leases)
		}
		got = append(got, leases[0].Task.Spec.Injections)
	}
	if !reflect.DeepEqual(got, []int{900, 400, 100}) {
		t.Fatalf("lease order %v, want largest first", got)
	}
}

// TestLeaseBatchIsLargestFirst: a k-cell grant is what a worker with k
// idle slots would get from k one-cell grants, the k largest pending
// cells, largest first; a grant wider than the backlog takes all of it.
func TestLeaseBatchIsLargestFirst(t *testing.T) {
	costs := []int{800, 700, 200, 150, 100, 50}
	for _, tenant := range []string{"", "acme"} {
		for _, k := range []int{2, 3, 4, 10} {
			t.Run(fmt.Sprintf("tenant=%q/k=%d", tenant, k), func(t *testing.T) {
				q, _ := newTestQueue(time.Minute)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for i, c := range costs {
					enqueue(t, q, ctx, tenant, uint64(40+i), c)
				}
				var got []int
				for _, l := range q.Lease("w", k) {
					got = append(got, l.Task.Spec.Injections)
				}
				if want := costs[:min(k, len(costs))]; !reflect.DeepEqual(got, want) {
					t.Fatalf("Lease(w, %d) granted %v, want %v", k, got, want)
				}
			})
		}
	}
}

// TestLeaseHugeMaxGrantsBacklog: max arrives from the lease request
// body, so any int must be served — as the whole backlog — and leave the
// queue usable.
func TestLeaseHugeMaxGrantsBacklog(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seed := uint64(60)
	for _, tenant := range []string{"t0", "t1"} {
		for _, c := range []int{300, 200, 100} {
			seed++
			enqueue(t, q, ctx, tenant, seed, c)
		}
	}
	leases := q.Lease("w", math.MaxInt)
	if len(leases) != 6 {
		t.Fatalf("Lease(w, MaxInt) granted %d cells, want the backlog of 6", len(leases))
	}
	if !q.Heartbeat(leases[0].ID) {
		t.Fatal("heartbeat on a granted lease failed")
	}
	if err := q.Complete(leases[0].ID, fakeResult(leases[0].Task.Spec.Injections), ""); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Pending != 0 || st.Leased != 5 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLeaseSingleTenantIsExactLegacyLPT byte-pins the degenerate case:
// with every pending cell under one tenant (named or empty), the pop
// order must be exactly the legacy largest-first schedule that
// TestLeaseOrderIsLargestFirst pins for the no-tenant queue.
func TestLeaseSingleTenantIsExactLegacyLPT(t *testing.T) {
	for _, tenant := range []string{"", "acme"} {
		t.Run(fmt.Sprintf("tenant=%q", tenant), func(t *testing.T) {
			q, _ := newTestQueue(time.Minute)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			costs := []int{100, 900, 400}
			for i, c := range costs {
				enqueue(t, q, ctx, tenant, uint64(20+i), c)
			}
			want := []int{900, 400, 100}
			for i, w := range want {
				leases := q.Lease("w1", 1)
				if len(leases) != 1 {
					t.Fatalf("pop %d: got %d leases", i, len(leases))
				}
				if got := leases[0].Task.Spec.Injections; got != w {
					t.Fatalf("pop %d: cost %d, want %d (legacy LPT order)", i, got, w)
				}
			}
		})
	}
}

// TestLeaseFairShareDRRProperty generates random tenant/arrival tables
// and asserts the deficit round-robin pop keeps every pair of
// continuously-backlogged tenants' normalized service (cost granted per
// unit weight) within two quanta of each other at every prefix of the
// grant sequence — the DRR fairness bound plus one quantum of slack for
// the cell-granularity rounding at the measurement instant.
func TestLeaseFairShareDRRProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q, _ := newTestQueue(time.Minute)
		ctx, cancel := context.WithCancel(context.Background())

		tenants := 2 + rng.Intn(3)
		weights := make([]int, tenants)
		backlog := make([]int64, tenants) // total queued cost per tenant
		var quantum int64
		seed := uint64(1000 * trial)
		for ti := 0; ti < tenants; ti++ {
			weights[ti] = 1 + rng.Intn(3)
			q.SetWeight(fmt.Sprintf("t%d", ti), weights[ti])
			cells := 4 + rng.Intn(5)
			for c := 0; c < cells; c++ {
				cost := 50 + rng.Intn(950)
				seed++
				enqueue(t, q, ctx, fmt.Sprintf("t%d", ti), seed, cost)
				backlog[ti] += int64(cost)
				if int64(cost) > quantum {
					quantum = int64(cost)
				}
			}
		}

		served := make([]int64, tenants)
		for {
			leases := q.Lease("w", 1)
			if len(leases) == 0 {
				break
			}
			var ti int
			fmt.Sscanf(leases[0].Task.Tenant, "t%d", &ti)
			served[ti] += int64(leases[0].Task.Spec.Injections)

			// Fairness holds between tenants that both still have work
			// pending (a drained tenant legitimately stops accruing).
			for a := 0; a < tenants; a++ {
				for b := a + 1; b < tenants; b++ {
					if served[a] >= backlog[a] || served[b] >= backlog[b] {
						continue
					}
					na := served[a] / int64(weights[a])
					nb := served[b] / int64(weights[b])
					if diff := na - nb; diff > 2*quantum || diff < -2*quantum {
						t.Fatalf("trial %d: tenants t%d/t%d normalized service %d vs %d diverged beyond 2x quantum %d (weights %v, served %v)",
							trial, a, b, na, nb, quantum, weights, served)
					}
				}
			}
		}
		cancel()
	}
}

// TestLeaseFairShareWeights checks weight proportionality end to end: a
// weight-3 tenant draining a long backlog against a weight-1 tenant
// receives roughly three times the service over the race.
func TestLeaseFairShareWeights(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.SetWeight("gold", 3)
	q.SetWeight("bronze", 1)
	const cells, cost = 30, 100
	seed := uint64(5000)
	for i := 0; i < cells; i++ {
		seed++
		enqueue(t, q, ctx, "gold", seed, cost)
		seed++
		enqueue(t, q, ctx, "bronze", seed, cost)
	}
	served := map[string]int64{}
	// Stop while both tenants are still backlogged so the ratio is a
	// fair-share measurement, not a drain artifact.
	for i := 0; i < cells; i++ {
		leases := q.Lease("w", 1)
		if len(leases) != 1 {
			t.Fatalf("pop %d: got %d leases", i, len(leases))
		}
		served[leases[0].Task.Tenant] += int64(leases[0].Task.Spec.Injections)
	}
	if served["gold"] == 0 || served["bronze"] == 0 {
		t.Fatalf("a tenant was starved: %v", served)
	}
	ratio := float64(served["gold"]) / float64(served["bronze"])
	if ratio < 2.0 || ratio > 4.0 {
		t.Fatalf("weight-3 vs weight-1 service ratio %.2f outside [2,4]: %v", ratio, served)
	}
}

// TestLeaseBatchAcrossTenantsStillFair drives multi-cell grants (max >
// 1) across tenants and checks every backlogged tenant appears in the
// combined grant stream before any tenant is served twice its share.
func TestLeaseBatchAcrossTenantsStillFair(t *testing.T) {
	q, _ := newTestQueue(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seed := uint64(9000)
	for ti := 0; ti < 3; ti++ {
		for c := 0; c < 6; c++ {
			seed++
			enqueue(t, q, ctx, fmt.Sprintf("t%d", ti), seed, 100+10*ti)
		}
	}
	leases := q.Lease("big-worker", 6)
	if len(leases) != 6 {
		t.Fatalf("granted %d cells, want 6", len(leases))
	}
	byTenant := map[string]int{}
	for _, l := range leases {
		byTenant[l.Task.Tenant]++
	}
	for ti := 0; ti < 3; ti++ {
		if n := byTenant[fmt.Sprintf("t%d", ti)]; n != 2 {
			t.Fatalf("equal-weight 3-tenant batch of 6 not split 2/2/2: %v", byTenant)
		}
	}
}
