package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// TestServeLifecycle pins the regression the Server type fixed: Serve used
// to return a bare listener with no shutdown path, losing serve errors
// and leaking the accept loop.
func TestServeLifecycle(t *testing.T) {
	withObs(t, func() {
		srv, err := Serve("127.0.0.1:0", NewHandler(newRegistry(), HandlerOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr().String()
		if code, _ := get(t, "http://"+addr+"/metrics"); code != 200 {
			t.Fatalf("GET /metrics = %d", code)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("clean Close returned %v", err)
		}
		if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
			t.Fatal("listener still accepting after Close")
		}
		// The port is released: a second server can bind it immediately.
		again, err := Serve(addr, NewHandler(newRegistry(), HandlerOpts{}))
		if err != nil {
			t.Fatalf("rebinding released address: %v", err)
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHandlerProm(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		r.Counter("tcpnet.bytes_out").Add(512)
		r.Gauge("pull.workers").Set(8)
		h := r.Histogram("pull.ns", []int64{10, 100})
		h.Observe(5)
		h.Observe(50)
		h.Observe(5000)

		resp, err := http.Get(serveOne(t, NewHandler(r, HandlerOpts{})) + "/metrics.prom")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("Content-Type = %q", ct)
		}
		want := `# TYPE cods_tcpnet_bytes_out counter
cods_tcpnet_bytes_out 512
# TYPE cods_pull_workers gauge
cods_pull_workers 8
# TYPE cods_pull_ns histogram
cods_pull_ns_bucket{le="10"} 1
cods_pull_ns_bucket{le="100"} 2
cods_pull_ns_bucket{le="+Inf"} 3
cods_pull_ns_sum 5055
cods_pull_ns_count 3
`
		if string(body) != want {
			t.Fatalf("prom exposition:\ngot:\n%s\nwant:\n%s", body, want)
		}
	})
}

func TestHandlerFlows(t *testing.T) {
	withObs(t, func() {
		log := []cluster.Flow{{Src: 1, Dst: 0, Medium: "network", Class: "inter-app", Bytes: 100}}
		base := serveOne(t, NewHandler(newRegistry(), HandlerOpts{
			Flows: func() []cluster.Flow { return log },
		}))

		var m FlowMatrix
		_, body := get(t, base+"/flows")
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("%v\n%s", err, body)
		}
		if len(m.Cells) != 1 || m.Cells[0].Bytes != 100 || m.Cells[0].Delta != 100 {
			t.Fatalf("first scrape = %+v", m)
		}
		log[0].Bytes = 160
		_, body = get(t, base+"/flows")
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatal(err)
		}
		if m.Cells[0].Bytes != 160 || m.Cells[0].Delta != 60 {
			t.Fatalf("windowed scrape = %+v", m.Cells[0])
		}
	})
}

func TestHandlerPprofGating(t *testing.T) {
	withObs(t, func() {
		// Without the opt-in the path falls through to the catch-all JSON
		// snapshot; the profile index must not be reachable.
		withoutPprof := serveOne(t, NewHandler(newRegistry(), HandlerOpts{}))
		if _, body := get(t, withoutPprof+"/debug/pprof/"); strings.Contains(body, "profiles") {
			t.Fatalf("pprof index served without opt-in:\n%s", body)
		}
		withPprof := serveOne(t, NewHandler(newRegistry(), HandlerOpts{Pprof: true}))
		if code, body := get(t, withPprof+"/debug/pprof/cmdline"); code != 200 {
			t.Fatalf("pprof cmdline = %d %q", code, body)
		}
	})
}

// serveOne starts a server for h, closed with the test, returning its base
// URL.
func serveOne(t *testing.T, h http.Handler) string {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr().String()
}
