package campaign

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/finject"
	"repro/internal/gpu"
)

// countingExecutor returns canned results and records how often and with
// what it was called.
type countingExecutor struct {
	calls atomic.Int64
	last  atomic.Value // Request
}

func (e *countingExecutor) Execute(ctx context.Context, req Request) (*finject.Result, error) {
	e.calls.Add(1)
	e.last.Store(req)
	res := &finject.Result{Injections: req.Spec.Injections}
	res.Outcomes[gpu.OutcomeMasked] = req.Spec.Injections
	return res, nil
}

func TestSchedulerDelegatesToExecutor(t *testing.T) {
	exec := &countingExecutor{}
	s := New(Config{Executor: exec})
	c := testCampaign(t, "vectoradd")
	if _, err := s.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := exec.calls.Load(); got != 1 {
		t.Fatalf("executor ran %d times, want 1 (second request served by the store)", got)
	}
	req := exec.last.Load().(Request)
	if req.Spec != SpecOf(c) || req.Key != SpecOf(c).Key() {
		t.Fatalf("request spec %+v does not match the campaign's cell", req.Spec)
	}
	if req.Policy.MaxInjections != 0 {
		t.Fatal("cap not resolved into the spec before dispatch")
	}
}

func TestRequestResolvesSpecWithoutCampaign(t *testing.T) {
	spec := CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", Injections: 10, Seed: 7}.Normalize()
	c, err := Request{Spec: spec}.campaign()
	if err != nil {
		t.Fatal(err)
	}
	if c.Chip == nil || c.Chip.Name != "Mini NVIDIA" || c.Injections != 10 {
		t.Fatalf("resolved campaign %+v", c)
	}
	// The spec decides the cap: a MaxInjections in the policy would apply
	// it twice, so the request drops it.
	c, err = Request{Spec: spec, Policy: finject.Config{MaxInjections: 500}}.campaign()
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy.MaxInjections != 0 || c.Policy.Cap(c.Injections) != 10 {
		t.Fatalf("policy cap %d overrode the spec's 10 injections: %+v", c.Policy.Cap(c.Injections), c.Policy)
	}
	if _, err := (Request{Spec: CellSpec{Chip: "no such chip", Benchmark: "vectoradd"}}).campaign(); err == nil {
		t.Fatal("unknown chip resolved")
	}
}

// drainQueue runs an in-process worker loop against the queue until stop
// is closed — the same protocol a remote fiworker speaks, minus HTTP.
func drainQueue(q *LeaseQueue, stop chan struct{}) {
	exec := NewLocalExecutor()
	for {
		select {
		case <-stop:
			return
		default:
		}
		leases := q.Lease("test-worker", 1)
		if len(leases) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, l := range leases {
			res, err := exec.Execute(context.Background(), Request{
				Spec: l.Task.Spec, Key: l.Task.Spec.Key(),
				Policy: l.Task.Policy.Policy(l.Task.Spec.CheckpointPolicy()),
			})
			msg := ""
			if err != nil {
				msg, res = err.Error(), nil
			}
			q.Complete(l.ID, res, msg)
		}
	}
}

func TestRemoteExecutionBitIdenticalToLocal(t *testing.T) {
	c := testCampaign(t, "transpose")

	local := New(Config{})
	want, err := local.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}

	q := NewLeaseQueue(time.Minute)
	stop := make(chan struct{})
	defer close(stop)
	go drainQueue(q, stop)

	remote := New(Config{Executor: NewRemoteExecutor(q)})
	got, err := remote.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("remote result differs from local:\nlocal:  %s\nremote: %s", wantJSON, gotJSON)
	}
	if remote.Stats().Runs != 1 {
		t.Fatalf("stats %+v", remote.Stats())
	}
}

func TestRemoteExecutorPropagatesWorkerError(t *testing.T) {
	q := NewLeaseQueue(time.Minute)
	stop := make(chan struct{})
	defer close(stop)
	go drainQueue(q, stop)

	s := New(Config{Executor: NewRemoteExecutor(q)})
	c := testCampaign(t, "vectoradd")
	c.Chip = nil
	if _, err := s.Run(context.Background(), c); err == nil {
		t.Fatal("campaign without chip accepted")
	}
	// A registry-resolvable chip is required across the wire; a campaign
	// carrying pointers still works locally but its spec must resolve.
	spec := SpecOf(testCampaign(t, "vectoradd"))
	spec.Chip = "no such chip"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := q.Do(ctx, Task{Spec: spec}); err == nil {
		t.Fatal("worker accepted a spec naming an unknown chip")
	}
}

// TestGoldenOnlyCellAlwaysSharesTheGolden: a golden-only cell restores no
// rung, so its checkpoint knob does not matter: both structures' cells,
// with the knob off and auto, take the pair's one shared golden run, and
// the off cell reads as the auto cell does.
func TestGoldenOnlyCellAlwaysSharesTheGolden(t *testing.T) {
	exec := NewLocalExecutor()
	var docs []string
	for _, tc := range []struct {
		st gpu.Structure
		ck finject.Checkpoint
	}{{gpu.RegisterFile, finject.Checkpoint{Off: true}}, {gpu.LocalMemory, finject.Checkpoint{Off: true}}, {gpu.RegisterFile, finject.Checkpoint{}}} {
		c := testCampaign(t, "matrixMul")
		c.Structure, c.GoldenOnly, c.Policy = tc.st, true, finject.Config{Checkpoint: &tc.ck}
		spec := SpecOf(c)
		res, err := exec.Execute(context.Background(), Request{Spec: spec, Key: spec.Key(), Policy: c.Policy})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if tc.st == gpu.RegisterFile {
			docs = append(docs, string(js))
		}
		if n := exec.GoldenRuns(); n != 1 {
			t.Fatalf("golden-only cells of one pair at %+v made %d shared golden runs, want 1", tc.ck, n)
		}
	}
	if docs[0] != docs[1] {
		t.Fatalf("off golden-only cell differs from the auto-knob one:\noff:  %s\nauto: %s", docs[0], docs[1])
	}
}
