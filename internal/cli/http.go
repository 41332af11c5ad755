package cli

import (
	"net/http"
	"time"
)

// HTTPServer returns the http.Server the listening binaries start
// (fiserver's API, fiworker's metrics sidecar). It bounds what a client
// can hold open without sending anything: the request-header read (a
// slow-loris connection) and idle keep-alive connections. It sets no
// ReadTimeout or WriteTimeout on purpose: NDJSON experiment streams, the
// lease long-poll and pprof profiles are legitimately long, and request
// bodies are bounded in size by the handlers instead. Constants, not
// flags: no deployment has needed another value.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
