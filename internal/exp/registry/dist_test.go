package registry_test

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
)

// pipeWorkers serves n in-process workers over pipes and returns them
// as a fixed fleet: a join channel closed after the last worker. Workers
// carry no registry knowledge: batches are self-describing.
func pipeWorkers(t *testing.T, n int) <-chan dist.Worker {
	t.Helper()
	fleet := make(chan dist.Worker, n)
	for i := 0; i < n; i++ {
		coordEnd, workerEnd := dist.Pipe()
		go dist.Serve(workerEnd)
		fleet <- dist.Worker{Name: fmt.Sprintf("w%d", i), RW: coordEnd}
	}
	close(fleet)
	return fleet
}

// TestDistributedReportMatchesLocal is the cross-process determinism
// guarantee at the registry level: a report assembled from results that
// were simulated on dist workers and merged through the JSON protocol is
// byte-identical to a local single-process report, and the coordinator
// itself simulates nothing.
func TestDistributedReportMatchesLocal(t *testing.T) {
	names := []string{"fig5", "table2", "area"}
	p := tinyParams()

	var local bytes.Buffer
	if _, err := registry.Report(&local, names, p, exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}

	var distributed bytes.Buffer
	cache := exp.NewCache()
	sets, err := registry.ReportDistributed(&distributed, names, p, 1, cache, dist.Options{Join: pipeWorkers(t, 3), Log: testLog(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), distributed.Bytes()) {
		t.Errorf("distributed report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), distributed.String())
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on workers", cache.Simulations())
	}
	for _, name := range names {
		if _, ok := sets[name]; !ok {
			t.Errorf("no result set for %q", name)
		}
	}
}

// TestDistributedReportWarmCache pins the -store interplay: a cache
// warmed by one distributed run satisfies the next without any workers.
func TestDistributedReportWarmCache(t *testing.T) {
	names := []string{"fig8"}
	p := tinyParams()
	cache := exp.NewCache()
	var first bytes.Buffer
	if _, err := registry.ReportDistributed(&first, names, p, 1, cache, dist.Options{Join: pipeWorkers(t, 2)}); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := registry.ReportDistributed(&second, names, p, 1, cache, dist.Options{}); err != nil {
		t.Fatalf("warm-cache distributed run must need no workers: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("warm-cache rerun differs from the run that warmed it")
	}
}

// TestSuiteDistributedMatchesLocal pins the -spec / -workers interplay:
// a described suite dispatched to workers renders byte-identically to a
// local run of the same suite — and, transitively, to the compiled-in
// experiment.
func TestSuiteDistributedMatchesLocal(t *testing.T) {
	p := tinyParams()
	s, err := registry.Describe("fig8", p)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if _, err := registry.ReportSuite(&local, s, exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}
	var distributed bytes.Buffer
	cache := exp.NewCache()
	if _, err := registry.ReportSuiteDistributed(&distributed, s, 1, cache, dist.Options{Join: pipeWorkers(t, 2), Log: testLog(t)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), distributed.Bytes()) {
		t.Errorf("distributed suite report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), distributed.String())
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on workers", cache.Simulations())
	}
}

// TestDistributedReportUnknownExperiment pins the coordinator-side error
// path before any dispatch.
func TestDistributedReportUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	_, err := registry.ReportDistributed(&out, []string{"nope"}, tinyParams(), 1, nil, dist.Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment", err)
	}
}

// genFleetCert writes a throwaway self-signed certificate and key for
// the elastic-fleet golden test's TLS transports.
func genFleetCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "expd-test"},
		DNSNames:              []string{"localhost"},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// TestElasticTLSFleetMatchesGolden is the acceptance pin for elastic,
// authenticated fleets: the full -all report, rendered from results
// simulated by workers that dial a TLS+token coordinator listener over
// real TCP — one joining only after dispatch has started, another
// leaving mid-run with a goodbye — is byte-identical to the committed
// single-process golden.
func TestElasticTLSFleetMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	certFile, keyFile := genFleetCert(t)
	acceptSec := dist.Security{CertFile: certFile, KeyFile: keyFile, Token: "fleet-secret"}
	dialSec := dist.Security{CAFile: certFile, Token: "fleet-secret"}

	// The coordinator's -accept-workers listener, exactly as cmd/expd
	// wires it: authenticate, read the register frame, feed the fleet.
	ln, err := acceptSec.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	join := make(chan dist.Worker)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				sc, err := acceptSec.Secure(c)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				w, err := dist.AcceptWorker(sc, c.RemoteAddr().String())
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				join <- w
			}(conn)
		}
	}()

	// Worker wA dials in first; after its fourth simulation it leaves
	// the fleet mid-run via the goodbye path. Its first simulation gates
	// worker wB's dial, so wB provably joins after dispatch started and
	// finishes the run (including wA's handed-back remainder).
	leaveA := make(chan struct{})
	dialB := make(chan struct{})
	startWorker := func(name string, opts ...dist.ServeOption) {
		conn, err := dialSec.Dial(ln.Addr().String())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer conn.Close()
		if err := dist.Register(conn, name); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if err := dist.Serve(conn, opts...); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var aRuns atomic.Int64
	var closeOnce, leaveOnce sync.Once
	go startWorker("wA", dist.LeaveOn(leaveA), dist.OnSimulate(func(exp.Key) {
		switch aRuns.Add(1) {
		case 1:
			closeOnce.Do(func() { close(dialB) })
		case 4:
			leaveOnce.Do(func() { close(leaveA) })
		}
	}))
	go func() {
		<-dialB
		startWorker("wB")
	}()

	var out bytes.Buffer
	cache := exp.NewCache()
	opts := dist.Options{Join: join, Log: testLog(t)}
	if _, err := registry.ReportDistributed(&out, registry.DefaultNames(), tinyParams(), 1, cache, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("elastic TLS fleet output differs from the committed golden (%d vs %d bytes)", out.Len(), len(golden))
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on the fleet", cache.Simulations())
	}
}

// crashRW lets a fixed number of worker-side frames through, then fails
// every write and severs the pipe — a worker process dying mid-batch.
type crashRW struct {
	rw         io.ReadWriteCloser
	writesLeft atomic.Int32
	died       chan struct{}
	once       sync.Once
}

func newCrashRW(rw io.ReadWriteCloser, frames int32) *crashRW {
	c := &crashRW{rw: rw, died: make(chan struct{})}
	c.writesLeft.Store(frames)
	return c
}

func (c *crashRW) Read(p []byte) (int, error) { return c.rw.Read(p) }

func (c *crashRW) Write(p []byte) (int, error) {
	if c.writesLeft.Add(-1) < 0 {
		c.once.Do(func() {
			c.rw.Close()
			close(c.died)
		})
		return 0, fmt.Errorf("worker crashed")
	}
	return c.rw.Write(p)
}

// gateRW delays a worker's first read — and with it its handshake —
// until the gate opens, the scheduling device that forces the first
// batches onto the workers that will fail.
type gateRW struct {
	rw   io.ReadWriteCloser
	gate <-chan struct{}
}

func (g *gateRW) Read(p []byte) (int, error)  { <-g.gate; return g.rw.Read(p) }
func (g *gateRW) Write(p []byte) (int, error) { return g.rw.Write(p) }
func (g *gateRW) Close() error                { return g.rw.Close() }

// TestChaosFleetMatchesGolden is the fault-injection acceptance pin: the
// full -all report survives a worker crashing mid-batch AND a worker
// partitioning (connected but silent, cut by FrameTimeout) — with the
// output still byte-identical to the committed single-process golden,
// and the telemetry registry accounting the carnage: requeues happened,
// every worker retired, and the queue drained to zero.
func TestChaosFleetMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// The crasher: handshakes, streams one result, then dies mid-batch.
	crashCoord, crashWorker := dist.Pipe()
	dying := newCrashRW(crashWorker, 2) // ready + one result
	go dist.Serve(dying)

	// The partitioned worker: handshakes, accepts a batch, then goes
	// silent while holding the connection open — only FrameTimeout can
	// declare it dead.
	stallCoord, stallWorker := dist.Pipe()
	gotBatch := make(chan struct{})
	go func() {
		m, err := dist.ReadMessage(stallWorker)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if err := dist.WriteMessage(stallWorker, &dist.Message{Type: dist.TypeReady}); err != nil {
			return
		}
		if m, err = dist.ReadMessage(stallWorker); err != nil || m.Type != dist.TypeBatch {
			return
		}
		close(gotBatch)
		dist.ReadMessage(stallWorker) // silence: never answer again
	}()

	// Two healthy survivors, gated until both victims have their batches
	// (and the crasher is dead), so the first dispatches provably land on
	// the doomed workers and real requeues happen.
	gate := make(chan struct{})
	go func() {
		<-dying.died
		<-gotBatch
		close(gate)
	}()
	workers := []dist.Worker{
		{Name: "crasher", RW: crashCoord},
		{Name: "partitioned", RW: stallCoord},
	}
	for i := 0; i < 2; i++ {
		coordEnd, workerEnd := dist.Pipe()
		go dist.Serve(&gateRW{rw: workerEnd, gate: gate})
		workers = append(workers, dist.Worker{Name: fmt.Sprintf("survivor%d", i), RW: coordEnd})
	}
	fleet := make(chan dist.Worker, len(workers))
	for _, w := range workers {
		fleet <- w
	}
	close(fleet)

	reg := obs.NewRegistry()
	var out bytes.Buffer
	cache := exp.NewCache()
	opts := dist.Options{
		Join:         fleet,
		FrameTimeout: 500 * time.Millisecond,
		Metrics:      reg,
		Log:          testLog(t),
	}
	// A worker pool of 8 floors every batch at 8 jobs.
	if _, err := registry.ReportDistributed(&out, registry.DefaultNames(), tinyParams(), 8, cache, opts); err != nil {
		t.Fatalf("chaos run must still succeed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("chaos fleet output differs from the committed golden (%d vs %d bytes)", out.Len(), len(golden))
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on the fleet", cache.Simulations())
	}

	// The registry must have witnessed the chaos and the recovery.
	if got := reg.Counter("dist_requeued_jobs_total", "").Value(); got < 1 {
		t.Errorf("dist_requeued_jobs_total = %d, want >= 1 (a crash and a partition both requeue)", got)
	}
	if got := reg.Counter("dist_retired_workers_total", "").Value(); got != int64(len(workers)) {
		t.Errorf("dist_retired_workers_total = %d, want %d", got, len(workers))
	}
	if got := reg.Counter("dist_worker_joins_total", "").Value(); got != int64(len(workers)) {
		t.Errorf("dist_worker_joins_total = %d, want %d", got, len(workers))
	}
	if got := reg.Counter("dist_worker_goodbyes_total", "").Value(); got != 0 {
		t.Errorf("dist_worker_goodbyes_total = %d, want 0 (nobody left cleanly)", got)
	}
	if got := reg.Gauge("dist_queue_depth", "").Value(); got != 0 {
		t.Errorf("dist_queue_depth = %v after the run, want 0", got)
	}
	if got := reg.Gauge("dist_inflight_jobs", "").Value(); got != 0 {
		t.Errorf("dist_inflight_jobs = %v after the run, want 0", got)
	}
	if got := reg.Counter("dist_results_merged_total", "").Value(); got < 1 {
		t.Errorf("dist_results_merged_total = %d, want >= 1", got)
	}
}

// testLog is the dispatch logger tests pass to dist.Options.Log: the
// fleet's standard structured logger, writing through t.Log.
func testLog(t testing.TB) *slog.Logger {
	return obs.NewLogger(tlogWriter{t})
}

// tlogWriter forwards each log line to t.Log.
type tlogWriter struct{ t testing.TB }

func (w tlogWriter) Write(p []byte) (int, error) {
	w.t.Helper()
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
