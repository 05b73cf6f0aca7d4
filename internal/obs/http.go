package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"

	"github.com/insitu/cods/internal/cluster"
)

// The HTTP endpoint is the expvar-style live view of a registry: GET /
// (or /metrics) returns the JSON snapshot, /metrics.txt the text
// rendering, /metrics.prom the Prometheus exposition, and /flows the
// aggregated flow matrix with windowed deltas. It is optional — nothing
// in the framework starts a listener unless a command is asked to
// (codsrun -obs-http, codsnode -obs-http).

// HandlerOpts selects the optional views a handler serves beyond the
// metric endpoints.
type HandlerOpts struct {
	// Flows, when non-nil, enables GET /flows: each request aggregates
	// the returned flow log into a FlowMatrix and annotates it with the
	// byte deltas since the previous scrape of this handler.
	Flows func() []cluster.Flow
	// Pprof mounts net/http/pprof's profile endpoints under
	// /debug/pprof/.
	Pprof bool
}

// NewHandler serves a registry over HTTP: / and /metrics (JSON snapshot),
// /metrics.txt (text), /metrics.prom (Prometheus text exposition), plus
// the optional views selected by opts.
func NewHandler(r *Registry, opts HandlerOpts) http.Handler {
	mux := http.NewServeMux()
	serveJSON := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	}
	mux.HandleFunc("/", serveJSON)
	mux.HandleFunc("/metrics", serveJSON)
	mux.HandleFunc("/metrics.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, r.Snapshot())
	})
	if opts.Flows != nil {
		win := NewFlowWindow()
		mux.HandleFunc("/flows", func(w http.ResponseWriter, _ *http.Request) {
			m := BuildFlowMatrix(opts.Flows())
			win.Update(&m)
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(m)
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a running observability HTTP listener. Close shuts it down
// and surfaces any abnormal serve error — the two lifecycle gaps the old
// listener-returning Serve had (no shutdown path, errors lost).
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	err  error
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server, waits for the serve loop to exit, and returns
// the first abnormal error from either serving or shutdown.
func (s *Server) Close() error {
	cerr := s.srv.Close()
	<-s.done
	if s.err != nil {
		return s.err
	}
	return cerr
}

// Serve starts an HTTP server for h on addr (":0" picks a free port) and
// returns a Server handle; Close it to stop serving.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}
