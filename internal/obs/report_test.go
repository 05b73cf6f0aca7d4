package obs

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportReconciliation(t *testing.T) {
	withObs(t, func() {
		Default.Counter("test.report.bytes").Add(42)
		rep := NewReport("obs_test")
		rep.SetMeta("k", "v")
		rep.AddCheck("bytes", 42, 42)
		if !rep.Reconciled {
			t.Fatal("matching check flagged as drift")
		}
		rep.AddCheck("ops", 3, 4)
		if rep.Reconciled {
			t.Fatal("mismatch not flagged")
		}
		path := filepath.Join(t.TempDir(), "sub", "report.json")
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.GeneratedBy != "obs_test" || back.Meta["k"] != "v" || len(back.Checks) != 2 {
			t.Fatalf("round trip = %+v", back)
		}
		if back.Checks[1].Match || back.Reconciled {
			t.Fatalf("drift lost in round trip: %+v", back)
		}
		if back.Metrics.Counters["test.report.bytes"] < 42 {
			t.Fatalf("snapshot missing counter: %+v", back.Metrics.Counters)
		}
	})
}

func TestHTTPEndpoint(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		r.Counter("http.hits").Add(7)
		srv, err := Serve("127.0.0.1:0", NewHandler(r, HandlerOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		base := "http://" + srv.Addr().String()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "http.hits") {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
		resp, err = http.Get(base + "/metrics.txt")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "counter http.hits") {
			t.Fatalf("text body %s", body)
		}
	})
}
