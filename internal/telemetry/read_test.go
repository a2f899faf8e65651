package telemetry

import (
	"net/http"
	"testing"
)

func TestSumValue(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.SumValue("absent"); ok {
		t.Fatal("absent family reported ok")
	}

	v := r.CounterVec("reqs_total", "", "route")
	v.With("a").Add(3)
	v.With("b").Add(4)
	if got, ok := r.SumValue("reqs_total"); !ok || got != 7 {
		t.Fatalf("sum = %v, %v; want 7", got, ok)
	}
	if got, ok := r.SumValue("reqs_total", "a"); !ok || got != 3 {
		t.Fatalf("child a = %v, %v; want 3", got, ok)
	}
	if _, ok := r.SumValue("reqs_total", "zzz"); ok {
		t.Fatal("unknown child reported ok")
	}

	r.GaugeFunc("depth", "", func() float64 { return 12 })
	if got, ok := r.SumValue("depth"); !ok || got != 12 {
		t.Fatalf("func gauge = %v, %v; want 12", got, ok)
	}

	r.Histogram("lat", "", nil)
	if _, ok := r.SumValue("lat"); ok {
		t.Fatal("histogram family reported as scalar")
	}
}

func TestSumBuckets(t *testing.T) {
	r := NewRegistry()
	if _, _, ok := r.SumBuckets("absent"); ok {
		t.Fatal("absent family reported ok")
	}

	hv := r.HistogramVec("lat", "", []float64{1, 2}, "stage")
	hv.With("apply").Observe(0.5)
	hv.With("apply").Observe(1.5)
	hv.With("commit").Observe(0.5)

	upper, counts, ok := r.SumBuckets("lat")
	if !ok || len(upper) != 2 || len(counts) != 3 {
		t.Fatalf("layout = %v %v %v", upper, counts, ok)
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("summed counts = %v", counts)
	}
	_, counts, ok = r.SumBuckets("lat", "apply")
	if !ok || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("apply counts = %v, %v", counts, ok)
	}

	r.Counter("scalar", "")
	if _, _, ok := r.SumBuckets("scalar"); ok {
		t.Fatal("scalar family reported as histogram")
	}
}

// TestStartDebugServerMounts: the debug listener serves /metrics and pprof,
// plus exactly what its caller mounts on it.
func TestStartDebugServerMounts(t *testing.T) {
	addr, stop, err := StartDebugServer("127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("GET /extra", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, want := range map[string]int{"/extra": http.StatusTeapot, "/metrics": 200, "/debug/pprof/": 200, "/healthz": 404} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
