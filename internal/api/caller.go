package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Caller is the one HTTP transport of the API: a JSON call and an NDJSON
// stream against a fiserver, or against a whole cluster of them. It
// sticks to one server until that one fails — a transport error or a
// 5xx, which is a dead server or a standby answering 503 — and then
// rotates to the next; determinism makes the servers interchangeable.
// Set the fields before the first call.
type Caller struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080", or a
	// comma-separated list of them for a clustered control plane; spaces
	// around a URL and slashes at its end are dropped.
	Base string
	// APIKey, when non-empty, is sent as "Authorization: Bearer <key>"
	// on every request — required against a server started with
	// -api-keys, ignored by one without.
	APIKey string
	// HTTPClient defaults to http.DefaultClient. Experiment streams can
	// outlive any client timeout: prefer a context deadline.
	HTTPClient *http.Client

	once  sync.Once
	bases []string     // Base, split
	cur   atomic.Int32 // index into bases of the server calls go to
}

// send makes one request with in as its JSON body (none when nil) and
// returns the 2xx response, or a *StatusError for any other answer.
func (c *Caller) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	c.once.Do(func() {
		for _, b := range strings.Split(c.Base, ",") {
			if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
				c.bases = append(c.bases, b)
			}
		}
		if len(c.bases) == 0 {
			c.bases = []string{""} // the request fails, naming its URL
		}
	})
	cur := c.cur.Load()
	req, err := http.NewRequestWithContext(ctx, method, c.bases[cur]+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	client := c.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil || resp.StatusCode/100 == 5 {
		// This server cannot serve; the next call goes to the next one.
		// Concurrent calls that all fail against the same server advance
		// the cursor once, not once each, and one server never rotates.
		c.cur.CompareAndSwap(cur, (cur+1)%int32(len(c.bases)))
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		var env ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env) // not the envelope: the status stands alone
		return nil, &StatusError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, JobID: env.Error.JobID}
	}
	return resp, nil
}

// Do sends one request and decodes the JSON answer into out (ignored
// when nil).
func (c *Caller) Do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Stream sends one request and hands each line of its NDJSON answer to
// each, until the stream ends or each returns an error.
func (c *Caller) Stream(ctx context.Context, method, path string, in any, each func(Event) error) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// A result event carries a whole experiment.Result on one line.
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("api: bad stream line %q: %w", sc.Text(), err)
		}
		if err := each(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}
