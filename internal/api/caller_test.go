package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCaller drives the one transport against a mux that answers like a
// fiserver, a standby and a proxy: which server a call reaches, what a
// non-2xx answer becomes, and where the next call goes.
func TestCaller(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Authorization"); got != "Bearer key-acme" {
			t.Errorf("Authorization %q", got)
		}
		fmt.Fprintln(w, `{"id":"job-000001","total":1}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		fmt.Fprintln(w, `{"error":{"code":"conflict","message":"job job-000007 still running (0/1 cells)","job_id":"job-000007"}}`)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `<html>slow down</html>`)
	})
	live := httptest.NewServer(mux)
	defer live.Close()
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":{"code":"unavailable","message":"server b is standby"}}`)
	}))
	defer standby.Close()
	const dead = "http://127.0.0.1:1"

	for _, tc := range []struct {
		name         string
		base         string
		method, path string
		// One entry per call, in order: the status it must end with (0 = a
		// transport error, 200 = success).
		want []int
		// What the last call's *StatusError must carry.
		code, message, jobID string
	}{
		{name: "plain base", base: live.URL, method: "POST", path: "/v1/jobs", want: []int{200}},
		// Go's mux answers "//v1/jobs" with a redirect, and the client
		// replays the POST as a GET: a 405, were the slash kept.
		{name: "trailing slash and spaces", base: "  " + live.URL + "/ ", method: "POST", path: "/v1/jobs", want: []int{200}},
		{name: "dead first base", base: dead + "," + live.URL, method: "POST", path: "/v1/jobs", want: []int{0, 200, 200}},
		{name: "standby first base", base: standby.URL + "/ , " + live.URL, method: "POST", path: "/v1/jobs", want: []int{503, 200, 200}},
		{name: "one standby never rotates", base: standby.URL, method: "POST", path: "/v1/jobs", want: []int{503, 503},
			code: "unavailable", message: "server b is standby"},
		{name: "envelope", base: live.URL, method: "GET", path: "/v1/jobs/job-000007/result", want: []int{409},
			code: "conflict", message: "job job-000007 still running (0/1 cells)", jobID: "job-000007"},
		{name: "a 4xx does not rotate", base: live.URL + "," + dead, method: "GET", path: "/v1/jobs/job-000007/result", want: []int{409, 409},
			code: "conflict", message: "job job-000007 still running (0/1 cells)", jobID: "job-000007"},
		{name: "a body that is not the envelope", base: live.URL, method: "GET", path: "/v1/jobs", want: []int{429}},
		{name: "transport error", base: dead, method: "GET", path: "/v1/jobs", want: []int{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Caller{Base: tc.base, APIKey: "key-acme"}
			var err error
			for i, want := range tc.want {
				var ack SubmitAck
				err = c.Do(context.Background(), tc.method, tc.path, nil, &ack)
				got := StatusOf(err)
				if err == nil {
					got = 200
					if ack.ID != "job-000001" || ack.Total != 1 {
						t.Fatalf("call %d decoded %+v", i, ack)
					}
				}
				if got != want {
					t.Fatalf("call %d: status %d (%v), want %d", i, got, err, want)
				}
			}
			var se *StatusError
			if !errors.As(err, &se) {
				return
			}
			if se.Code != tc.code || se.Message != tc.message || se.JobID != tc.jobID {
				t.Fatalf("status error %+v, want code %q message %q job %q", se, tc.code, tc.message, tc.jobID)
			}
			if want := fmt.Sprintf("server status %d: %s", se.Status, tc.message); se.Error() != want {
				t.Fatalf("error text %q, want %q", se.Error(), want)
			}
		})
	}
}

// TestCallerRotatesOncePerFailure: calls that all fail against the same
// server advance the cursor once, not once each — with two servers a
// second advance would land back on the dead one.
func TestCallerRotatesOncePerFailure(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	}))
	defer live.Close()
	release := make(chan struct{})
	var arrived sync.WaitGroup
	arrived.Add(4)
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer standby.Close()

	c := &Caller{Base: standby.URL + "," + live.URL}
	var failed sync.WaitGroup
	for i := 0; i < 4; i++ {
		failed.Add(1)
		go func() {
			defer failed.Done()
			if err := c.Do(context.Background(), "GET", "/healthz", nil, nil); StatusOf(err) != http.StatusServiceUnavailable {
				t.Errorf("call against the standby: %v", err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	failed.Wait()
	var h Health
	if err := c.Do(context.Background(), "GET", "/healthz", nil, &h); err != nil || h.Status != "ok" {
		t.Fatalf("after four failures against one server the next call answered %+v, %v", h, err)
	}
}

// TestCallerStream: blank lines are skipped, each's error ends the
// stream, and a line that is not an Event is an error naming it.
func TestCallerStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{\"event\":\"job\",\"id\":\"exp-000001\"}\n\n{\"event\":\"cell\",\"done\":1}\n"+r.URL.Query().Get("tail"))
	}))
	defer ts.Close()
	c := &Caller{Base: ts.URL}

	var seen []string
	each := func(ev Event) error {
		seen = append(seen, ev.Event)
		return nil
	}
	if err := c.Stream(context.Background(), "POST", "/v1/experiments", Event{}, each); err != nil || strings.Join(seen, ",") != "job,cell" {
		t.Fatalf("saw %v, %v", seen, err)
	}
	stop := errors.New("enough")
	if err := c.Stream(context.Background(), "POST", "/v1/experiments", nil, func(Event) error { return stop }); err != stop {
		t.Fatalf("each's error came back as %v", err)
	}
	if err := c.Stream(context.Background(), "POST", "/v1/experiments?tail=not+json", nil, each); err == nil || !strings.Contains(err.Error(), `"not json"`) {
		t.Fatalf("bad line: %v", err)
	}
}
