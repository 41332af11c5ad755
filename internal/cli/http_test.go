package cli

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: header and idle reads are bounded; whole
// requests and responses are not, or streams and long-polls would be cut.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := HTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded header/idle: %+v", srv)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut NDJSON streams and the lease long-poll", srv.ReadTimeout, srv.WriteTimeout)
	}
}
