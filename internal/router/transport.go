package router

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// reply is one replica's answer as its handler wrote it: the router hands
// a reply to the handler as its http.ResponseWriter and keeps status,
// headers and body bytes.
type reply struct {
	header      http.Header
	status      int
	wroteHeader bool
	body        []byte
	err         error // the handler panicked; in route's outcome, the router's own failure
}

// Header implements http.ResponseWriter.
func (res *reply) Header() http.Header { return res.header }

// WriteHeader implements http.ResponseWriter; only the first call sticks,
// matching net/http semantics.
func (res *reply) WriteHeader(code int) {
	if !res.wroteHeader {
		res.status, res.wroteHeader = code, true
	}
}

// Write implements http.ResponseWriter.
func (res *reply) Write(p []byte) (int, error) {
	res.WriteHeader(http.StatusOK)
	res.body = append(res.body, p...)
	return len(p), nil
}

// call serves one request through the replica's handler on the caller's
// goroutine and returns the recorded reply. A panicking handler is confined
// to this request and comes back as the reply's err, which the router
// treats like an unreachable replica (reroute, then let health checking
// eject it).
func (r *replica) call(ctx context.Context, method, path string, body []byte) (res *reply) {
	res = &reply{header: make(http.Header), status: http.StatusOK}
	req, err := http.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		if e := recover(); e != nil {
			res.err = fmt.Errorf("router: %s handler panicked: %v", r.name, e)
		}
	}()
	r.h.ServeHTTP(res, req)
	return res
}
