// The debug mux: bipie-serve, the one serving binary, mounts these routes
// by serving (*Server).Handler(), and the tests and the repository
// benchmark drive the same handler.
package serve

import (
	"net/http"
	httppprof "net/http/pprof"
)

// Handler returns the server's full HTTP surface:
//
//	POST /query            — the query endpoint (Server.ServeHTTP)
//	GET  /metrics          — content negotiated: OpenMetrics (with
//	                         exemplars) for Accept: application/openmetrics-text,
//	                         JSON otherwise
//	GET  /healthz          — liveness
//	GET  /debug/requests   — the request journal (?id=<hex> for one
//	                         request, ?format=trace for Chrome trace_event,
//	                         both for one request's stages as a trace)
//	GET  /debug/pprof/*    — net/http/pprof, with executing queries
//	                         labeled by shape and strategy
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", s)
	mux.Handle("/metrics", s.reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("/debug/requests", s.journal)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}
