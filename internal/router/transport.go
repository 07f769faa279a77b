package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// handlerTransport adapts an in-process http.Handler into an
// http.RoundTripper, so the router talks to every replica through a plain
// *http.Client regardless of where the replica lives: an in-process
// serve.Server costs one function call per request (no sockets, no
// serialization beyond the JSON bodies both sides already speak), and a
// future remote replica is just a client with the default transport and a
// real URL. The round trip runs on the caller's goroutine.
type handlerTransport struct{ h http.Handler }

// RoundTrip serves req directly through the wrapped handler and packages
// the recorded output as an *http.Response. A panicking handler is
// confined to this forwarded request and surfaces as a transport error, which
// the routing layer treats like an unreachable replica (reroute, then let
// health checking eject it).
func (t handlerTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	defer func() {
		if e := recover(); e != nil {
			resp, err = nil, fmt.Errorf("router: replica handler panicked: %v", e)
		}
	}()
	rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is the minimal http.ResponseWriter behind
// handlerTransport: status, headers, and a body buffer. (A hand-rolled
// recorder keeps net/http/httptest out of the production import graph.)
type responseRecorder struct {
	header      http.Header
	buf         bytes.Buffer
	code        int
	wroteHeader bool
}

// Header implements http.ResponseWriter.
func (r *responseRecorder) Header() http.Header { return r.header }

// WriteHeader implements http.ResponseWriter; only the first call sticks,
// matching net/http semantics.
func (r *responseRecorder) WriteHeader(code int) {
	if r.wroteHeader {
		return
	}
	r.code = code
	r.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (r *responseRecorder) Write(p []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	return r.buf.Write(p)
}

// newHandlerClient wraps an in-process handler in an *http.Client.
func newHandlerClient(h http.Handler) *http.Client {
	return &http.Client{Transport: handlerTransport{h: h}}
}
