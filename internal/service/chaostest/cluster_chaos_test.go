package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/service"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// startClusterServer launches one fiserver of a cluster: shared cell
// store, shared job journal and shared ownership journal under dir,
// multi-tenant auth from keys, and remote-worker mode so a fiworker
// fleet carries the actual simulations.
func startClusterServer(t *testing.T, dir, id, keys string) *proc {
	t.Helper()
	return startServer(t, dir, "",
		"-cluster-dir", filepath.Join(dir, "cluster"),
		"-server-id", id,
		"-takeover-ttl", "750ms",
		"-api-keys", keys,
		"-workers-remote",
		"-lease-ttl", "2s",
	)
}

// startFleetWorker launches one fiworker pointed at the whole server
// list; it survives individual server deaths by sticky failover.
func startFleetWorker(t *testing.T, servers string) {
	t.Helper()
	cmd := exec.Command(fiworkerBin,
		"-server", servers,
		"-poll", "250ms",
		"-concurrency", "2",
		"-quiet",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		select {
		case <-exited:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
	})
}

// submitAuthed POSTs a batch with a Bearer key and returns the job id.
func submitAuthed(t *testing.T, base, key string, cells []campaign.CellSpec) string {
	t.Helper()
	buf, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil || submitted.ID == "" {
		t.Fatalf("submit answer %s: %v", body, err)
	}
	return submitted.ID
}

// getAuthed GETs path with a Bearer key and returns status and body.
func getAuthed(t *testing.T, base, key, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestMultiServerFailoverByteIdentical is the horizontal-scaling proof:
// two fiservers share one cell store, one job journal and one ownership
// journal; a fiworker fleet points at both; a tenant submits a batch to
// the active owner, which is SIGKILLed mid-campaign. The standby must
// seize ownership, adopt and finish the job, and the client — polling
// the standby through client.WaitDone the whole time — must receive a
// result byte-identical to an uninterrupted single-server run, with the
// dead server's settled cells served from the shared store, never
// re-injected.
func TestMultiServerFailoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	var cells []campaign.CellSpec
	for i := uint64(0); i < 6; i++ {
		s := testutil.MiniSpec("matrixMul", 90+i)
		s.Injections = 100
		cells = append(cells, s)
	}
	want := cleanReference(t, cells)

	dir := t.TempDir()
	keys := filepath.Join(dir, "keys.conf")
	if err := os.WriteFile(keys, []byte("key-acme acme weight=2\nkey-beta beta\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	a := startClusterServer(t, dir, "a", keys)
	b := startClusterServer(t, dir, "b", keys)
	startFleetWorker(t, a.base+","+b.base)
	startFleetWorker(t, b.base+","+a.base)

	// a owns the journal; b is a standby answering 503 (and 401 is not
	// the answer — the gate behind the cluster shim never runs).
	if code, body := getAuthed(t, b.base, "key-acme", "/v1/jobs"); code != http.StatusServiceUnavailable {
		t.Fatalf("standby answered %d: %s", code, body)
	}
	if code, body := getAuthed(t, a.base, "key-acme", "/v1/jobs"); code != http.StatusOK {
		t.Fatalf("owner answered %d: %s", code, body)
	}
	// The tenancy gate is live on the owner: keyless requests bounce.
	if code, _ := getAuthed(t, a.base, "", "/v1/jobs"); code != http.StatusUnauthorized {
		t.Fatalf("keyless request answered %d, want 401", code)
	}

	id := submitAuthed(t, a.base, "key-acme", cells)

	// The waiting client points at the standby from the first moment:
	// its 503s and the owner's death are both invisible to WaitDone.
	waiter := &client.Client{Base: b.base, APIKey: "key-acme"}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	waitErr := make(chan error, 1)
	var final *client.JobStatus
	go func() {
		st, err := waiter.WaitDone(ctx, id)
		final = st
		waitErr <- err
	}()

	// Let the fleet settle some cells through a, then kill -9.
	ca := &client.Client{Base: a.base, APIKey: "key-acme"}
	progressDeadline := time.Now().Add(120 * time.Second)
	for {
		st, err := ca.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done > 0 {
			break
		}
		if time.Now().After(progressDeadline) {
			t.Fatalf("job never progressed\n%s", a.dump())
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.kill(t)

	if err := <-waitErr; err != nil {
		t.Fatalf("WaitDone across the failover: %v\na:\n%s\nb:\n%s", err, a.dump(), b.dump())
	}
	if final.State != "done" {
		t.Fatalf("adopted job finished %q: %+v", final.State, final)
	}

	// b adopted exactly the one journaled job and resumed it.
	if restored, resumed := b.recovery(); restored != 1 || resumed != 1 {
		t.Fatalf("takeover recovered %d jobs / resumed %d, want 1/1\n%s", restored, resumed, b.dump())
	}
	got, err := waiter.Status(ctx, id)
	if err != nil || got.Done != len(cells) {
		t.Fatalf("status after failover: %+v (%v)", got, err)
	}
	raw := rawResultAuthed(t, b.base, id, "key-acme")
	if !bytes.Equal(raw, want) {
		t.Fatalf("failover result differs from uninterrupted run:\nclean:    %s\nfailover: %s", want, raw)
	}

	// Work conservation, from the survivor's own counters: every cell is
	// either a warm hit from the shared store (settled by the dead
	// server) or one fresh remote run — nothing is injected twice.
	hits := metric(t, b.base, "fi_sched_cache_hits_total")
	runs := metric(t, b.base, "fi_sched_cell_runs_total")
	if int(hits)+int(runs) != len(cells) {
		t.Fatalf("hits %v + runs %v != %d cells", hits, runs, len(cells))
	}
	if hits < 1 {
		t.Fatal("no warm hits on the survivor: the dead server's settled cells were re-injected")
	}
	if tk := metric(t, b.base, "fi_cluster_takeovers_total"); tk != 1 {
		t.Fatalf("fi_cluster_takeovers_total %v, want 1", tk)
	}
	if act := metric(t, b.base, "fi_cluster_active"); act != 1 {
		t.Fatalf("fi_cluster_active %v, want 1", act)
	}

	// Tenant isolation survives the failover: the other tenant's key
	// cannot see acme's job on the new owner.
	if code, _ := getAuthed(t, b.base, "key-beta", "/v1/jobs/"+id); code != http.StatusNotFound {
		t.Fatalf("cross-tenant status answered %d, want 404", code)
	}
}

// rawResultAuthed fetches /v1/jobs/{id}/result with a Bearer key.
func rawResultAuthed(t *testing.T, base, id, key string) []byte {
	t.Helper()
	code, body := getAuthed(t, base, key, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, body)
	}
	return body
}

// TestSIGTERMReleasesOwnership sends a clustered fiserver the signal
// supervisors, container runtimes and kill(1) send. It must drain like
// SIGINT: exit cleanly and close its epoch with a release record, so a
// standby takes over at once instead of waiting out the takeover TTL.
func TestSIGTERMReleasesOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	dir := t.TempDir()
	p := startServer(t, dir, "", "-cluster-dir", filepath.Join(dir, "cluster"), "-server-id", "term-1")
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		p.exited <- err
		if err != nil {
			t.Fatalf("fiserver did not drain on SIGTERM: %v\n%s", err, p.dump())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("fiserver never exited after SIGTERM\n%s", p.dump())
	}
	data, err := os.ReadFile(filepath.Join(dir, "cluster", service.OwnershipFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wire.ReplayOwners(data)
	if err != nil {
		t.Fatal(err)
	}
	last := wire.LatestOwner(recs)
	if last.Event != wire.OwnerRelease || last.Server != "term-1" || last.Epoch != 1 {
		t.Fatalf("ownership journal ends in %+v (%d records), want term-1's release at epoch 1", last, len(recs))
	}
}
