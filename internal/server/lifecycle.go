package server

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"

	"repro/internal/obs"
	"repro/internal/stagerr"
)

// RequestIDHeader is the header the daemon reads a caller-supplied request
// ID from and echoes — generated server-side when absent — on every
// response, including errors and panics. The same ID rides in every error
// envelope's request_id field, so a client log line and a server log line
// about the same failure can be joined.
const RequestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// requestID returns the ID the lifecycle middleware stored in ctx, or ""
// for contexts that never passed through it (direct library use, tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// withLifecycle is the root middleware every route (including /healthz and
// /metrics) runs under. It assigns/echoes the request ID and contains
// handler panics: a panicking request logs the stack, bumps the panic
// counter, and answers a well-formed 500 envelope instead of killing the
// daemon's connection (or, worse, the process). Panics in pipeline work,
// which runs off the handler goroutine, are contained the same way by
// endpoint.
func (s *Server) withLifecycle(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.RequestID(r.Header.Get(RequestIDHeader))
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.logPanic(r, v)
			// A panic after the handler started writing cannot be turned
			// into a clean envelope; the connection is torn down instead.
			if !sw.wrote {
				s.writeError(sw, r, http.StatusInternalServerError, stagerr.Serve, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// logPanic counts a recovered panic and logs it with the request's ID and
// the panicking goroutine's stack.
func (s *Server) logPanic(r *http.Request, v any) {
	s.reg.panics.Add("", 1)
	log.Printf("pwrsimd: panic serving %s %s (request %s): %v\n%s",
		r.Method, r.URL.Path, requestID(r.Context()), v, debug.Stack())
}
