// Command expq is the simulation service daemon: the long-lived front
// end that turns the batch pipeline into shared infrastructure
// (internal/serve over internal/store). Clients submit declarative
// suites — the same `-spec` documents cmd/experiments runs — over
// HTTP/JSON; results come back byte-identical to a local run.
//
// Start a daemon backed by a persistent store and an elastic worker
// fleet (docs/OPERATIONS.md has the full runbook):
//
//	expq -listen :9800 -store /var/lib/expq/store \
//	     -accept-workers :9801 -token secret
//
// Workers are plain `expd join` processes dialing -accept-workers; they
// may join and leave at any time, including mid-submission. Without
// -accept-workers, expq simulates in-process (-local bounds the pool) —
// the single-host service shape.
//
// Submit a suite and print the rendered report:
//
//	experiments -describe fig8 | expq submit -server http://host:9800 -
//	experiments -all -server http://host:9800        (same, per experiment)
//
// Every submitted job resolves through the store (a prior completion by
// any client is a hit), then the in-flight table (identical jobs
// running for another client are joined, not re-simulated), and only
// then the compute backend. Completed work persists across daemon
// restarts in the -store directory; -store-max-bytes bounds it with
// LRU-by-access eviction. -import-cache migrates a legacy `-cache-file`
// snapshot into the store once at startup.
//
// Transport security mirrors expd: -tls-cert/-tls-key arm both the
// HTTP listener and the worker listener, -token guards submissions
// (bearer token) and worker registration (preamble). -metrics-addr
// serves the expq_* store/service series plus the dist_* dispatch
// series on /metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icfp/cmd/internal/cliutil"
	"icfp/internal/dist"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		submitMain(os.Args[2:])
		return
	}
	daemonMain(os.Args[1:])
}

func daemonMain(args []string) {
	fs := flag.NewFlagSet("expq", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expq -listen :9800 -store DIR [-accept-workers :9801] [flags]   (daemon)")
		fmt.Fprintln(os.Stderr, "       expq submit -server URL [suite.json | -]                        (client)")
		fs.PrintDefaults()
	}
	var (
		listen    = fs.String("listen", ":9800", "HTTP address for suite submissions")
		storeDir  = fs.String("store", "", "persistent result store directory (required)")
		maxBytes  = fs.Int64("store-max-bytes", 0, "evict least-recently-accessed results past this store size (0 = unbounded)")
		importC   = fs.String("import-cache", "", "one-shot migration: import this -cache-file snapshot into the store at startup")
		accept    = fs.String("accept-workers", "", "TCP address to accept expd join workers on (empty = simulate in-process)")
		local     = fs.Int("local", 0, "in-process simulation pool size when no worker fleet is configured (0 = GOMAXPROCS)")
		parallel  = fs.Int("parallel", 0, "per-worker pool size (0 = each worker's GOMAXPROCS)")
		timeout   = fs.Duration("worker-timeout", 0, "declare a silent worker dead and reassign its batch after this long (0 = wait forever)")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "beacon a liveness heartbeat to every worker on this interval (0 = off)")
		maxIdle   = fs.Duration("max-idle", 0, "fail a submission after this long with zero workers and jobs outstanding (0 = wait forever)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = telemetry off)")
	)
	sec := cliutil.AcceptFlags(fs)
	fs.Parse(args)

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "expq:", err)
		os.Exit(1)
	}
	if *storeDir == "" {
		fs.Usage()
		os.Exit(2)
	}

	log := obs.NewLogger(os.Stderr)
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		bound, _, err := obs.Serve(*metrics, reg, nil)
		if err != nil {
			fatal(err)
		}
		log.Info("metrics endpoint up", obs.KeyAddr, bound)
	}

	st, err := store.Open(*storeDir, store.Options{MaxBytes: *maxBytes})
	if err != nil {
		fatal(err)
	}
	st.Instrument(reg)
	log.Info("store open", "dir", *storeDir, "records", st.Len(), "bytes", st.Bytes())
	if *importC != "" {
		n, err := st.ImportSnapshot(*importC)
		if err != nil {
			fatal(fmt.Errorf("importing %s: %w", *importC, err))
		}
		log.Info("cache snapshot imported", "path", *importC, "new_records", n)
	}

	var join chan dist.Worker
	if *accept != "" {
		ln, err := sec.Listen(*accept)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		log.Info("accepting workers", obs.KeyAddr, ln.Addr().String(),
			"tls", sec.CertFile != "", "token_auth", sec.Token != "")
		join = make(chan dist.Worker)
		// The daemon outlives every submission: the accept loop never
		// stands down, and workers redial between coordinator rounds.
		go cliutil.AcceptWorkers(ln, *sec, join, nil, log)
	}

	srv, err := serve.New(serve.Config{
		Store:          st,
		Join:           join,
		DistOpts:       dist.Options{Log: log, FrameTimeout: *timeout, Heartbeat: *heartbeat, MaxIdle: *maxIdle},
		WorkerParallel: *parallel,
		LocalParallel:  *local,
		Token:          sec.Token,
		Metrics:        reg,
		Log:            log,
	})
	if err != nil {
		fatal(err)
	}

	hln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Info("shutting down", "signal", s.String())
		hs.Close()
	}()
	log.Info("submissions endpoint up", obs.KeyAddr, hln.Addr().String(),
		"tls", sec.CertFile != "", "token_auth", sec.Token != "", "backend", backendName(*accept))
	if sec.CertFile != "" {
		err = hs.ServeTLS(hln, sec.CertFile, sec.KeyFile)
	} else {
		err = hs.Serve(hln)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func backendName(accept string) string {
	if accept == "" {
		return "local"
	}
	return "fleet"
}

func submitMain(args []string) {
	fs := flag.NewFlagSet("expq submit", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expq submit -server URL [-token secret] [-tls-ca ca.pem] [suite.json | -]")
		fmt.Fprintln(os.Stderr, "Submits a -spec suite document to a running expq daemon and prints the rendered report.")
		fs.PrintDefaults()
	}
	var (
		server     = fs.String("server", "", "expq daemon base URL, e.g. http://host:9800")
		token      = fs.String("token", "", "bearer token (the daemon's -token)")
		caFile     = fs.String("tls-ca", "", "CA certificate file to verify an https daemon against")
		serverName = fs.String("tls-server-name", "", "expected TLS server name when it differs from the URL host")
		quiet      = fs.Bool("q", false, "suppress per-job progress on stderr")
	)
	fs.Parse(args)
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "expq submit:", err)
		os.Exit(1)
	}
	if *server == "" {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	if path == "" {
		path = "-"
	}
	var suite []byte
	var err error
	if path == "-" {
		suite, err = io.ReadAll(os.Stdin)
	} else {
		suite, err = os.ReadFile(path)
	}
	if err != nil {
		fatal(err)
	}

	c, err := serve.NewClient(*server, *token, *caFile, *serverName)
	if err != nil {
		fatal(err)
	}
	onEvent := func(e serve.Event) {
		if *quiet {
			return
		}
		switch e.Event {
		case "plan":
			fmt.Fprintf(os.Stderr, "expq submit: %d jobs (%d store hits, %d shared, %d dispatched)\n",
				e.Jobs, e.StoreHits, e.Attached, e.Dispatched)
		case "job":
			fmt.Fprintf(os.Stderr, "expq submit: %d/%d done\n", e.Done, e.Total)
		}
	}
	out, err := c.Submit(suite, onEvent)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(out)
}
