// Command crhd serves truth discovery over HTTP: a concurrent, versioned
// dataset registry with live ingest whose versions coalesce identical
// resolves and keep their results, backed by the CRH library.
//
// Usage:
//
//	crhd [flags] [name=dataset.tsv ...]
//
// Positional arguments preload datasets from TSV files (the library's
// codec format) under the given names. The server then accepts:
//
//	GET    /healthz                          liveness
//	GET    /v1/healthz                       readiness: dataset count + build info
//	GET    /metrics                          Prometheus text exposition
//	GET    /v1/stats                         counters, cache hit rate, latency histogram
//	GET    /v1/methods                       registered resolution methods
//	GET    /v1/datasets                      list datasets
//	POST   /v1/datasets/{name}               create (body: TSV, may be empty)
//	GET    /v1/datasets/{name}               dataset info
//	DELETE /v1/datasets/{name}               delete
//	POST   /v1/datasets/{name}/observations  live ingest (JSON batch)
//	POST   /v1/datasets/{name}/resolve       run CRH or a baseline
//	GET    /v1/datasets/{name}/incremental   warm I-CRH truths/weights
//
// See docs/SERVER.md for the JSON shapes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/crhkit/crh/internal/obs/buildinfo"
	"github.com/crhkit/crh/internal/server"
)

// Connection timeouts: a client has readHeaderTimeout to send a
// request's headers, and a keep-alive connection idle for idleTimeout is
// closed. There is deliberately no read or write timeout, so a
// multi-megabyte upload or a long solve is never cut off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the http.Server crhd serves handler with, its
// header and idle timeouts set to readHeader and idle.
func newHTTPServer(handler http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// run is the testable entry point. When ready is non-nil the bound
// listener address is sent on it once the server is accepting; the server
// runs until ctx is cancelled. Returns the process exit code.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("crhd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		cacheSize = fs.Int("cache", 128, "finished resolve results each dataset version keeps (least recently used evicted first)")
		decay     = fs.Float64("decay", 1, "I-CRH decay rate α in [0,1] for live-ingest incremental state")
		workers   = fs.Int("solver-workers", 0, "solver worker pool shared by all resolves (0 = GOMAXPROCS); results are identical at any setting")
		dataDir   = fs.String("data-dir", "", "durable ingest directory (WAL + snapshots per dataset); empty = memory-only (docs/DURABILITY.md)")
		fsync     = fs.String("fsync", "batch", "WAL fsync policy: batch (every ingest), interval, or off")
		fsyncIvl  = fs.Duration("fsync-interval", 100*time.Millisecond, "minimum spacing between fsyncs under -fsync=interval")
		snapEvery = fs.Int("snapshot-every", 128, "write a snapshot (and compact the WAL) every N ingested batches (N ≥ 1)")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
		slow      = fs.Duration("slow", 500*time.Millisecond, "log requests at or above this latency at WARN level (0 disables)")
		stageLog  = fs.Int("stage-log", 0, "log every Nth successful resolve's per-stage latency breakdown (0 disables)")
		version   = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stderr, "crhd")
		return 0
	}
	if *decay < 0 || *decay > 1 {
		fmt.Fprintf(stderr, "crhd: -decay must be in [0,1], got %g\n", *decay)
		return 2
	}
	if *snapEvery < 1 {
		fmt.Fprintf(stderr, "crhd: -snapshot-every must be at least 1, got %d\n", *snapEvery)
		return 2
	}

	logger := slog.New(slog.NewJSONHandler(stderr, nil))

	srv, err := server.New(server.Config{
		CacheCapacity: *cacheSize,
		Decay:         *decay,
		SolverWorkers: *workers,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		FsyncInterval: *fsyncIvl,
		SnapshotEvery: *snapEvery,
		StageLogEvery: *stageLog,
		StageLog:      stageLogFunc(logger),
	})
	if err != nil {
		fmt.Fprintf(stderr, "crhd: %v\n", err)
		return 1
	}
	defer func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(stderr, "crhd: shutdown: %v\n", err)
		}
	}()
	if *dataDir != "" {
		fmt.Fprintf(stderr, "crhd: durable ingest in %s (fsync=%s), %d dataset(s) recovered\n",
			*dataDir, *fsync, srv.Registry().Count())
	}

	for _, arg := range fs.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintf(stderr, "crhd: preload argument %q is not name=path.tsv\n", arg)
			return 2
		}
		if _, exists := srv.Registry().Get(name); exists {
			// Recovered from -data-dir; the durable state wins so a
			// restart with the same command line keeps ingested batches.
			fmt.Fprintf(stderr, "crhd: dataset %q recovered from data dir, skipping preload of %s\n", name, path)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "crhd: %v\n", err)
			return 1
		}
		_, err = srv.Registry().Create(name, f)
		//lint:ignore errflow f was opened read-only; close cannot lose buffered writes
		_ = f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "crhd: preload %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stderr, "crhd: preloaded dataset %q from %s\n", name, path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "crhd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "crhd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	var handler http.Handler = srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(stderr, "crhd: pprof enabled under /debug/pprof/")
	}
	handler = requestLog(logger, *slow, handler)

	hs := newHTTPServer(handler, readHeaderTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "crhd: shutdown: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "crhd: shut down")
		return 0
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "crhd: %v\n", err)
			return 1
		}
		return 0
	}
}
