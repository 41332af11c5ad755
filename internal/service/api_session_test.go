package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/api_session.golden from what the server answers now")

// leaseNonce matches the per-queue random part of a lease id, the one
// value of the session that differs between runs.
var leaseNonce = regexp.MustCompile(`lease-[0-9a-f]{8}-`)

// apiSession records one scripted conversation with a server as
// "METHOD path → status content-type" lines, each followed by the
// response body, indented.
type apiSession struct {
	t   *testing.T
	ts  *httptest.Server
	log strings.Builder
}

// call sends one request (key and body may be empty), appends the
// answer to the transcript and returns its body. Every body must decode
// strictly — unknown fields are a failure — into the type internal/api
// declares for it: into for a 2xx answer (NDJSON: every line), the error
// envelope for any other status. Failures are t.Error, so that the
// experiment stream can be called from a goroutine of its own.
func (s *apiSession) call(method, path, key, body string, into any) []byte {
	s.t.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, strings.NewReader(body))
	if err != nil {
		s.t.Error(err)
		return nil
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Error(err)
	}
	fmt.Fprintf(&s.log, "%s %s → %d %s\n", method, leaseNonce.ReplaceAllString(path, "lease-NONCE-"), resp.StatusCode, resp.Header.Get("Content-Type"))
	for _, line := range strings.SplitAfter(leaseNonce.ReplaceAllString(string(got), "lease-NONCE-"), "\n") {
		if line != "" {
			s.log.WriteString("  " + line)
		}
	}
	if !bytes.HasSuffix(got, []byte("\n")) {
		s.log.WriteString("  (no newline at the end)\n")
	}

	if resp.StatusCode/100 != 2 {
		into = &api.ErrorEnvelope{}
	}
	for _, doc := range bytes.SplitAfter(got, []byte("\n")) {
		if len(doc) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			s.t.Errorf("%s %s answered %d with a body %T does not declare: %v\n%s", method, path, resp.StatusCode, into, err, doc)
		}
	}
	return got
}

// await polls (unrecorded) until the job has left the running state.
func (s *apiSession) await(id, key string) {
	s.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st struct {
			State string `json:"state"`
		}
		if code := authedDo(s.t, s.ts, "GET", "/v1/jobs/"+id, key, nil, &st); code != http.StatusOK {
			s.t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		if st.State != "running" {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("job %s stuck", id)
		}
	}
}

// TestAPISessionPinned pins every response byte of the HTTP surface: one
// scripted session — a batch submitted, watched, served over the worker
// protocol, fetched and deleted; a second batch canceled; an experiment
// stream; one of each error status — against a key-protected server
// whose cells only the session's own lease calls can settle, so every
// answer is a function of the script. testdata/api_session.golden was
// recorded on the commit before internal/api existed; regenerate it
// (`-update`) only for an intended change of the API.
func TestAPISessionPinned(t *testing.T) {
	const golden = "testdata/api_session.golden"
	q := campaign.NewLeaseQueue(time.Minute)
	srv := NewServer(campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q)}))
	srv.ServeWorkers(q)
	ks, err := ParseKeys(strings.NewReader("key-acme acme max-jobs=2\nkey-umbra umbra\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAuth(ks)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	s := &apiSession{t: t, ts: ts}

	batch := func(bench string) string {
		b, err := json.Marshal(api.SubmitRequest{Cells: []campaign.CellSpec{testutil.MiniSpec(bench, 7)}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	s.call("GET", "/healthz", "", "", &api.Health{})
	s.call("POST", "/v1/jobs", "", batch("vectoradd"), nil)  // 401
	s.call("POST", "/v1/jobs", "key-acme", `{"cells":`, nil) // 400
	s.call("POST", "/v1/jobs", "key-acme", batch("vectoradd"), &api.SubmitAck{})
	s.call("GET", "/v1/jobs/job-000001", "key-acme", "", &api.JobStatus{})
	s.call("GET", "/v1/jobs/job-000001", "key-umbra", "", nil)       // 404: another tenant's job
	s.call("GET", "/v1/jobs/job-000001/result", "key-acme", "", nil) // 409

	// lease takes the one queued cell and returns its lease's path and
	// the completion a worker would deliver.
	lease := func() (path, done string) {
		var grant api.LeaseGrant
		if err := json.Unmarshal(s.call("POST", "/v1/workers/lease", "", `{"worker":"w1","max":4,"wait_ms":10000}`, &api.LeaseGrant{}), &grant); err != nil || len(grant.Leases) != 1 {
			t.Fatalf("lease grant %+v: %v", grant, err)
		}
		b, err := json.Marshal(api.CompleteRequest{Result: runRemoteCell(t, grant.Leases[0].Task)})
		if err != nil {
			t.Fatal(err)
		}
		return "/v1/workers/" + grant.Leases[0].ID, string(b)
	}

	// The worker protocol: the batch's one cell, leased, kept alive,
	// delivered twice.
	s.call("POST", "/v1/workers/lease", "", `{"worker":"`+strings.Repeat("w", maxLeaseBody)+`"}`, nil) // 413
	held, done := lease()
	s.call("POST", held+"/heartbeat", "", "", &api.LeaseState{})
	s.call("POST", "/v1/workers/lease-0-000099/heartbeat", "", "", nil) // 410

	// A second batch takes the tenant's last job slot; it is canceled
	// while its cell waits in the queue.
	s.call("POST", "/v1/jobs", "key-acme", batch("transpose"), &api.SubmitAck{})
	s.call("POST", "/v1/jobs", "key-acme", batch("reduction"), nil) // 429
	s.call("GET", "/v1/jobs", "key-acme", "", &api.JobList{})
	s.call("GET", "/v1/jobs", "key-umbra", "", &api.JobList{})
	s.call("DELETE", "/v1/jobs/job-000002", "key-acme", "", &api.JobState{})
	s.await("job-000002", "key-acme")
	s.call("GET", "/v1/jobs/job-000002", "key-acme", "", &api.JobStatus{})
	s.call("GET", "/v1/jobs/job-000002/result", "key-acme", "", nil) // 409: canceled

	s.call("POST", held+"/complete", "", `{}`, nil) // 400: neither a result nor an error
	s.call("POST", held+"/complete", "", done, &api.LeaseState{})
	s.call("POST", held+"/complete", "", done, &api.LeaseState{})
	s.await("job-000001", "key-acme")
	s.call("GET", "/v1/jobs/job-000001", "key-acme", "", &api.JobStatus{})
	s.call("GET", "/v1/jobs/job-000001/result", "key-acme", "", &api.JobResult{})

	// An experiment: its stream stays open while the session serves its
	// one cell, and is written down once it has ended.
	stream, ended := &apiSession{t: t, ts: ts}, make(chan struct{})
	go func() {
		defer close(ended)
		stream.call("POST", "/v1/experiments", "key-acme",
			`{"version":1,"name":"session","chips":["Mini NVIDIA"],"benchmarks":["vectoradd"],"structures":["register-file"],"injections":20,"seed":7}`, &api.Event{})
	}()
	held, done = lease()
	s.call("POST", held+"/complete", "", done, &api.LeaseState{})
	<-ended
	s.log.WriteString(stream.log.String())
	s.call("POST", "/v1/experiments", "key-acme", `{"version":1,"chips":["No Such Chip"]}`, nil) // 400
	s.call("GET", "/v1/jobs/exp-000003", "key-acme", "", &api.JobStatus{})
	s.call("GET", "/v1/jobs/exp-000003/result", "key-acme", "", &api.JobResult{})

	s.call("DELETE", "/v1/jobs/job-000001", "key-acme", "", &api.JobState{})
	s.call("DELETE", "/v1/jobs/job-000001", "key-acme", "", nil) // 404
	s.call("GET", "/v1/jobs", "key-acme", "", &api.JobList{})

	// A cluster member that does not own the store.
	dir := t.TempDir()
	owner := NewCluster(dir, "a", time.Minute, func() (http.Handler, error) { return okHandler(), nil })
	if err := owner.Start(); err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	standby := NewCluster(dir, "b", time.Minute, func() (http.Handler, error) { return okHandler(), nil })
	if err := standby.Start(); err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	sb := httptest.NewServer(standby)
	defer sb.Close()
	s.ts = sb
	s.call("GET", "/healthz", "", "", &api.ClusterHealth{})
	s.call("GET", "/v1/jobs", "", "", nil) // 503

	if *update {
		if err := os.WriteFile(golden, []byte(s.log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(s.log.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d: the API moved:\n got %s\nwant %s", golden, i+1, g, w)
		}
	}
}
