package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/testutil"
)

func TestParseKeys(t *testing.T) {
	ks, err := ParseKeys(strings.NewReader(`
# operator comment
key-acme-1  acme  weight=3 max-jobs=2 inj-rate=500
key-acme-2  acme  weight=3 max-jobs=2 inj-rate=500
key-beta    beta
`))
	if err != nil {
		t.Fatal(err)
	}
	tenants := ks.Tenants()
	if len(tenants) != 2 || tenants[0].Name != "acme" || tenants[1].Name != "beta" {
		t.Fatalf("tenants %+v", tenants)
	}
	if tenants[0].Weight != 3 || tenants[0].MaxJobs != 2 || tenants[0].InjRate != 500 {
		t.Fatalf("acme limits %+v", tenants[0])
	}
	if tenants[1].Weight != 1 || tenants[1].MaxJobs != 0 || tenants[1].InjRate != 0 {
		t.Fatalf("beta defaults %+v", tenants[1])
	}
	// Both acme keys resolve to the same tenant record.
	a1, ok1 := ks.Authenticate("Bearer key-acme-1")
	a2, ok2 := ks.Authenticate("bearer key-acme-2")
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatalf("rotated keys resolve differently: %v %v", a1, a2)
	}
	for _, bad := range []string{"", "key-acme-1", "Basic key-acme-1", "Bearer nope", "Bearer"} {
		if _, ok := ks.Authenticate(bad); ok {
			t.Fatalf("header %q authenticated", bad)
		}
	}
}

func TestParseKeysRejectsMalformedFiles(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"comments only":     "# nothing\n\n",
		"one field":         "lonely-key\n",
		"duplicate key":     "k1 acme\nk1 beta\n",
		"conflicting limit": "k1 acme max-jobs=1\nk2 acme max-jobs=2\n",
		"bad option":        "k1 acme shape=round\n",
		"bad weight":        "k1 acme weight=0\n",
		"bad rate":          "k1 acme inj-rate=-1\n",
		"option first":      "weight=2 acme\n",
	}
	for name, body := range cases {
		if _, err := ParseKeys(strings.NewReader(body)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// authedServer builds a two-tenant test server: acme with tight quotas,
// beta unlimited.
func authedServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(campaign.New(campaign.Config{}))
	ks, err := ParseKeys(strings.NewReader(
		"key-acme acme max-jobs=1 inj-rate=100\nkey-beta beta\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAuth(ks)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// authedDo performs one JSON request with a bearer key and decodes the
// response body.
func authedDo(t *testing.T, ts *httptest.Server, method, path, key string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decode %s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func submitBody(t *testing.T, n int) io.Reader {
	t.Helper()
	cells := make([]campaign.CellSpec, n)
	for i := range cells {
		cells[i] = testutil.MiniSpec("vectoradd", uint64(100+i))
	}
	b, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(b))
}

func TestAuthRejectsUnknownKeys(t *testing.T) {
	ts, _ := authedServer(t)
	var envelope struct {
		Error api.Error `json:"error"`
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs", "", nil, &envelope); code != http.StatusUnauthorized {
		t.Fatalf("missing key: status %d", code)
	}
	if envelope.Error.Code != "unauthorized" {
		t.Fatalf("envelope %+v", envelope)
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs", "stolen", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d", code)
	}
	// Monitoring stays open: liveness and metrics need no key.
	if code := authedDo(t, ts, "GET", "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d", code)
	}
	if code := authedDo(t, ts, "GET", "/metrics", "", nil, nil); code != http.StatusOK {
		t.Fatalf("metrics behind auth: status %d", code)
	}
}

func TestTenantIsolation(t *testing.T) {
	ts, _ := authedServer(t)
	var submitted struct {
		ID string `json:"id"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-beta", submitBody(t, 1), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitSettledAs(t, ts, submitted.ID, "key-beta")

	// The owner sees its job, with the tenant attributed.
	var status struct {
		Tenant string `json:"tenant"`
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs/"+submitted.ID, "key-beta", nil, &status); code != http.StatusOK {
		t.Fatalf("owner status: %d", code)
	}
	if status.Tenant != "beta" {
		t.Fatalf("status tenant %q", status.Tenant)
	}
	// Another tenant gets the same 404 as for a job that never existed,
	// on status, result, list and delete alike.
	for _, path := range []string{"/v1/jobs/" + submitted.ID, "/v1/jobs/" + submitted.ID + "/result"} {
		if code := authedDo(t, ts, "GET", path, "key-acme", nil, nil); code != http.StatusNotFound {
			t.Fatalf("cross-tenant GET %s: status %d", path, code)
		}
	}
	if code := authedDo(t, ts, "DELETE", "/v1/jobs/"+submitted.ID, "key-acme", nil, nil); code != http.StatusNotFound {
		t.Fatalf("cross-tenant DELETE: status %d", code)
	}
	var listing struct {
		Jobs []api.JobSummary `json:"jobs"`
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs", "key-acme", nil, &listing); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(listing.Jobs) != 0 {
		t.Fatalf("acme sees beta's jobs: %+v", listing.Jobs)
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs", "key-beta", nil, &listing); code != http.StatusOK || len(listing.Jobs) != 1 || listing.Jobs[0].Tenant != "beta" {
		t.Fatalf("owner list: %+v", listing.Jobs)
	}
}

// waitSettledAs polls a job until it leaves "running".
func waitSettledAs(t *testing.T, ts *httptest.Server, id, key string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status struct {
			State string `json:"state"`
		}
		if code := authedDo(t, ts, "GET", "/v1/jobs/"+id, key, nil, &status); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if status.State != "running" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQuotaMaxJobs(t *testing.T) {
	srv := NewServer(campaign.New(campaign.Config{}))
	ks, err := ParseKeys(strings.NewReader("key-acme acme max-jobs=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAuth(ks)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Pin the quota slot directly: with the single slot held, a submit
	// must bounce with the 429 envelope; released, it must admit.
	acme := ks.Tenants()[0]
	if err := srv.quota.admit(acme, 0); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error api.Error `json:"error"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), &envelope); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d", code)
	}
	if envelope.Error.Code != "quota_exceeded" {
		t.Fatalf("envelope %+v", envelope)
	}
	srv.quota.release("acme")

	var submitted struct {
		ID string `json:"id"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), &submitted); code != http.StatusAccepted {
		t.Fatalf("post-release submit: status %d", code)
	}
	waitSettledAs(t, ts, submitted.ID, "key-acme")
	// The settled job returned its slot: another submission admits.
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), &submitted); code != http.StatusAccepted {
		t.Fatalf("slot not released on settle: status %d", code)
	}
	waitSettledAs(t, ts, submitted.ID, "key-acme")
}

// TestFigureRunsPassAdmission closes the bypass the retired GET
// /v1/figure left open (it ran an 80-cell figure for any key holder
// without admitJob, drain accounting or the journal). Under API keys a
// figure is its spec POSTed to /v1/experiments, so with the tenant's
// one job slot taken it bounces 429 like any submission, and the
// retired routes answer 404 without starting a campaign.
func TestFigureRunsPassAdmission(t *testing.T) {
	ts, srv := authedServer(t)
	acme := srv.auth.Tenants()[0]
	if err := srv.quota.admit(acme, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.quota.release("acme")

	for _, path := range []string{
		"/v1/figure?fig=1&n=5&chips=Mini+NVIDIA&bench=vectoradd&stream=0",
		"/v1/stats",
	} {
		if code := authedDo(t, ts, "GET", path, "key-acme", nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %s under a valid key: status %d, want 404", path, code)
		}
	}

	spec, err := experiment.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips, spec.Benchmarks, spec.Injections = []string{"Mini NVIDIA"}, []string{"vectoradd"}, 5
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error api.Error `json:"error"`
	}
	if code := authedDo(t, ts, "POST", "/v1/experiments", "key-acme", bytes.NewReader(body), &envelope); code != http.StatusTooManyRequests {
		t.Fatalf("figure spec over quota: status %d, want 429", code)
	}
	if envelope.Error.Code != "quota_exceeded" {
		t.Fatalf("envelope %+v", envelope)
	}
	if st := srv.sched.Stats(); st.Runs != 0 || st.Hits != 0 {
		t.Fatalf("campaign work started past admission: %+v", st)
	}
}

// TestQuotaSurvivesOverflowSubmission: two cells of 1<<62 injections sum
// to a negative int64. Charged as a cost, that drove the tenant's
// inj-rate debt to -9.2e18 — which never decays back — and admitted every
// later submission of that tenant for free. The submission is refused at
// admission, before the quota is touched.
func TestQuotaSurvivesOverflowSubmission(t *testing.T) {
	ts, srv := authedServer(t)
	// A stopped clock: rate debt never decays, however slow the host.
	epoch := time.Unix(0, 0)
	srv.quota.mu.Lock()
	srv.quota.now = func() time.Time { return epoch }
	srv.quota.mu.Unlock()
	huge := `{"cells":[` +
		`{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":4611686018427387904,"seed":1},` +
		`{"chip":"Mini NVIDIA","benchmark":"transpose","injections":4611686018427387904,"seed":2}]}`
	var envelope struct {
		Error api.Error `json:"error"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", strings.NewReader(huge), &envelope); code != http.StatusBadRequest || envelope.Error.Code != "bad_request" {
		t.Fatalf("overflowing submission: status %d, envelope %+v, want 400 bad_request", code, envelope)
	}
	srv.quota.mu.Lock()
	u := srv.quota.tenants["acme"]
	srv.quota.mu.Unlock()
	if u != nil && (u.debt != 0 || u.running != 0) {
		t.Fatalf("refused submission left quota usage %+v, want it untouched", *u)
	}
	// The tenant's quota still works: one job admits and holds the slot…
	var submitted struct {
		ID string `json:"id"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), &submitted); code != http.StatusAccepted {
		t.Fatalf("ordinary submission after the refusal: status %d", code)
	}
	waitSettledAs(t, ts, submitted.ID, "key-acme")
	// …and its 20 injections of rate debt bounce the next one.
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), nil); code != http.StatusTooManyRequests {
		t.Fatalf("submission while in rate debt: status %d, want 429", code)
	}
}

func TestQuotaInjectionRate(t *testing.T) {
	q := newQuotaTable()
	clock := time.Unix(0, 0)
	q.now = func() time.Time { return clock }
	ten := &Tenant{Name: "acme", Weight: 1, InjRate: 100}

	// First submission admits on an empty bucket and charges its cost.
	if err := q.admit(ten, 250); err != nil {
		t.Fatal(err)
	}
	q.release("acme")
	// Still in debt: the next submission bounces.
	if err := q.admit(ten, 10); err == nil {
		t.Fatal("admitted while in rate debt")
	}
	// 2.5 seconds pays off 250 injections of debt at 100/s.
	clock = clock.Add(2500 * time.Millisecond)
	if err := q.admit(ten, 10); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
}

// FuzzAPIKeys hammers the key-file parser and the Authorization header
// path with adversarial input: whatever the bytes, parsing must never
// panic, a parsed key set must uphold its invariants, and
// authentication must be exact — every declared key resolves, nothing
// else does.
func FuzzAPIKeys(f *testing.F) {
	f.Add("key tenant\n", "Bearer key")
	f.Add("# comment\nk1 acme weight=2 max-jobs=3 inj-rate=5.5\nk2 acme weight=2 max-jobs=3 inj-rate=5.5\n", "bearer k2")
	f.Add("k1 a\nk1 b\n", "Basic k1")
	f.Add("weight=1 t\n", "")
	f.Add("k t weight=\n", "Bearer\tk")
	f.Fuzz(func(t *testing.T, file, header string) {
		ks, err := ParseKeys(strings.NewReader(file))
		if err != nil {
			return
		}
		tenants := ks.Tenants()
		if len(tenants) == 0 {
			t.Fatal("parsed key set with no tenants")
		}
		seen := map[string]bool{}
		for _, ten := range tenants {
			if ten.Name == "" || ten.Weight < 1 || ten.MaxJobs < 0 || ten.InjRate < 0 {
				t.Fatalf("invalid tenant %+v", ten)
			}
			if seen[ten.Name] {
				t.Fatalf("tenant %q listed twice", ten.Name)
			}
			seen[ten.Name] = true
		}
		// Every declared key authenticates to its declared tenant.
		for key, want := range ks.keys {
			got, ok := ks.Authenticate("Bearer " + key)
			if !ok || got != want {
				t.Fatalf("declared key %q did not authenticate to %v", key, want)
			}
		}
		// Arbitrary headers never panic and never mint a tenant outside
		// the table.
		if ten, ok := ks.Authenticate(header); ok && !seen[ten.Name] {
			t.Fatalf("header %q authenticated unknown tenant %+v", header, ten)
		}
	})
}

// TestResumedJobKeepsItsQuotaSlot: a server restarted over a journal
// that holds a running job of a tenant at its max-jobs limit resumes the
// job without admission, and the slot the job takes back is the tenant's
// one: a new submission answers 429 quota_exceeded while the resumed job
// runs, and admits once it has settled.
func TestResumedJobKeepsItsQuotaSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js := mustOpenJobStore(t, path)
	if err := js.append(journalRecord{
		Event: "submit", Job: "job-000007", Kind: "batch", Tenant: "acme",
		Cells: []campaign.CellSpec{testutil.MiniSpec("vectoradd", 61)},
	}); err != nil {
		t.Fatal(err)
	}
	js.Close()

	// The restart: the test plays the worker, so the resumed job runs
	// until the test completes its one cell.
	js = mustOpenJobStore(t, path)
	defer js.Close()
	q := campaign.NewLeaseQueue(time.Minute)
	srv := NewServer(campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 8}))
	srv.ServeWorkers(q)
	ks, err := ParseKeys(strings.NewReader("key-acme acme max-jobs=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAuth(ks)
	if rec, err := srv.UseJobStore(js); err != nil || rec.Resumed != 1 {
		t.Fatalf("recovery %+v, %v; want 1 resumed", rec, err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var leases []campaign.Lease
	for deadline := time.Now().Add(30 * time.Second); len(leases) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the resumed job's cell never surfaced as a lease")
		}
		leases = leaseOnce(t, ts, "w1", 1, 100*time.Millisecond)
	}
	var envelope struct {
		Error api.Error `json:"error"`
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), &envelope); code != http.StatusTooManyRequests || envelope.Error.Code != "quota_exceeded" {
		t.Fatalf("submit beside the resumed job: status %d, envelope %+v; want 429 quota_exceeded", code, envelope)
	}

	completeLease(t, ts, leases[0].ID, runRemoteCell(t, leases[0].Task), "", http.StatusOK)
	waitSettledAs(t, ts, "job-000007", "key-acme")
	var status struct {
		State string `json:"state"`
	}
	if code := authedDo(t, ts, "GET", "/v1/jobs/job-000007", "key-acme", nil, &status); code != http.StatusOK || status.State != "done" {
		t.Fatalf("resumed job: status %d, state %q; want done", code, status.State)
	}
	if code := authedDo(t, ts, "POST", "/v1/jobs", "key-acme", submitBody(t, 1), nil); code != http.StatusAccepted {
		t.Fatalf("submit after the resumed job settled: status %d, want 202", code)
	}
}
