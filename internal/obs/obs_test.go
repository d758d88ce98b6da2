package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", "worker", "w0")
	c.Inc()
	c.Add(2)
	c.Add(-5) // negative deltas ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if again := r.Counter("jobs_total", "", "worker", "w0"); again != c {
		t.Error("get-or-create returned a different counter for the same series")
	}
	if other := r.Counter("jobs_total", "", "worker", "w1"); other == c {
		t.Error("distinct labels returned the same counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(4.5)
	g.Add(-1.5)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}

	h := r.Histogram("secs", "seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("histogram count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("histogram sum = %v, want 56.05", h.Sum())
	}

	r.GaugeFunc("age_seconds", "age", func() float64 { return 7 })
}

// TestNilSafety pins the "off by default" contract: every operation on a
// nil registry, and on the nil metrics it hands out, is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("b", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("c", "", DefSecondsBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated")
	}
	r.GaugeFunc("d", "", func() float64 { return 1 })
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}

	var l *SpanLog
	l.Add(Span{})
	if l.Spans() != nil {
		t.Error("nil span log returned spans")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dist_worker_batches_total", "batches dispatched per worker", "worker", "hostB:9700").Add(3)
	r.Counter("dist_worker_batches_total", "", "worker", "proc 0").Add(1)
	r.Gauge("dist_queue_depth", "jobs awaiting dispatch").Set(12)
	r.GaugeFunc("dist_heartbeat_age_seconds", "seconds since the last coordinator heartbeat", func() float64 { return 1.5 })
	h := r.Histogram("exp_sim_seconds", "simulation wall time", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dist_worker_batches_total batches dispatched per worker",
		"# TYPE dist_worker_batches_total counter",
		`dist_worker_batches_total{worker="hostB:9700"} 3`,
		`dist_worker_batches_total{worker="proc 0"} 1`,
		"# TYPE dist_queue_depth gauge",
		"dist_queue_depth 12",
		"dist_heartbeat_age_seconds 1.5",
		"# TYPE exp_sim_seconds histogram",
		`exp_sim_seconds_bucket{le="1"} 1`,
		`exp_sim_seconds_bucket{le="10"} 2`,
		`exp_sim_seconds_bucket{le="+Inf"} 3`,
		"exp_sim_seconds_sum 55.5",
		"exp_sim_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") && !strings.HasSuffix(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Error("two renders of the same registry differ")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "", "worker", "w0").Add(2)
	r.Histogram("secs", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Type   string            `json:"type"`
			Value  *float64          `json:"value"`
			Count  *int64            `json:"count"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON rendering does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(doc.Metrics))
	}
	if m := doc.Metrics[0]; m.Name != "hits" || m.Type != "counter" || m.Labels["worker"] != "w0" || m.Value == nil || *m.Value != 2 {
		t.Errorf("counter rendered badly: %+v", m)
	}
	if m := doc.Metrics[1]; m.Name != "secs" || m.Type != "histogram" || m.Count == nil || *m.Count != 1 {
		t.Errorf("histogram rendered badly: %+v", m)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", "worker", `a"b\c`).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if want := `c{worker="a\"b\\c"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label missing %q in %q", want, buf.String())
	}
}

func TestConcurrentRegistryUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c", "help").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "", DefSecondsBuckets).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 800 {
		t.Errorf("concurrent counter = %d, want 800", got)
	}
	if got := r.Gauge("g", "").Value(); got != 800 {
		t.Errorf("concurrent gauge = %v, want 800", got)
	}
	if got := r.Histogram("h", "", DefSecondsBuckets).Count(); got != 800 {
		t.Errorf("concurrent histogram = %d, want 800", got)
	}
}

func TestHandlerServesMetricsAndHealthz(t *testing.T) {
	r := NewRegistry()
	r.Counter("exp_cache_hits_total", "cache hits").Add(5)
	var unhealthy bool
	addr, stop, err := Serve("127.0.0.1:0", r, func() error {
		if unhealthy {
			return io.ErrClosedPipe
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "exp_cache_hits_total 5") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"exp_cache_hits_total"`) {
		t.Errorf("/metrics?format=json = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	unhealthy = true
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("unhealthy /healthz = %d, want 503", code)
	}
}

func TestSpanLogSortsAndRenders(t *testing.T) {
	l := NewSpanLog()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	l.Add(Span{Machine: "m2", Workload: "w", Worker: "b", Start: t0.Add(time.Second), End: t0.Add(2 * time.Second), ElapsedNS: 1e9})
	l.Add(Span{Machine: "m1", Workload: "w", Worker: "a", Start: t0, End: t0.Add(time.Second), ElapsedNS: 1e9})
	spans := l.Spans()
	if len(spans) != 2 || spans[0].Machine != "m1" || spans[1].Machine != "m2" {
		t.Errorf("spans not sorted by start: %+v", spans)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span JSON does not parse: %v", err)
	}
	if len(doc.Spans) != 2 || doc.Spans[0].Worker != "a" {
		t.Errorf("span JSON round trip: %+v", doc.Spans)
	}
}
