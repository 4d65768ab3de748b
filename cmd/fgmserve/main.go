// Command fgmserve builds a graph database over a data graph and serves
// pattern queries over HTTP with bounded concurrency.
//
// Usage:
//
//	fgmserve -graph data.fgm -addr :8080
//	fgmserve -graph data.fgm -addr :8080 -max-inflight 16 -queue-timeout 50ms
//
// Endpoints:
//
//	POST /query   — {"pattern": "A->B; B->C", "algorithm": "dps", "timeout_ms": 500, "limit": 10}
//	POST /insert  — {"edges": [[4, 17], [4, 21]]}: incremental edge inserts
//	POST /delete  — {"edges": [[4, 17]]}: incremental edge deletes
//	GET  /stats   — metrics snapshot (queries, cache hits, rejections, latency quantiles, I/O)
//	GET  /healthz — liveness
//
// Overloaded requests are shed with 429 and a Retry-After header; requests
// past their deadline answer 504; queries killed by the -max-table-rows /
// -max-intermediate-bytes resource budgets answer 422; request bodies over
// -max-request-bytes answer 413; with -readonly every mutating endpoint
// answers 403. Inserts and deletes maintain the index in place (no
// rebuild) and are atomic with respect to concurrent queries.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fastmatch"
	"fastmatch/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	defaultAlgo := fastmatch.DPS
	flag.Func("algo", "default `planner`: dp or dps (default dps)", func(s string) (err error) {
		defaultAlgo, err = fastmatch.ParseAlgorithm(s)
		return err
	})
	var (
		graphPath    = flag.String("graph", "", "data graph file (text format; required)")
		addr         = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		pool         = flag.Int("pool", 0, "buffer pool bytes (default 1 MB)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently executing queries (default 8)")
		queueTimeout = flag.Duration("queue-timeout", 0, "max wait for an execution slot before 429 (default 100ms)")
		timeout      = flag.Duration("timeout", 0, "default per-query timeout (0 = none)")
		maxTableRows = flag.Int("max-table-rows", 0, "per-query intermediate-table row budget (0 = unbounded; exceeding answers 422)")
		maxIMBytes   = flag.Int64("max-intermediate-bytes", 0, "per-query intermediate-result byte budget (0 = unbounded; exceeding answers 422)")
		maxReqBytes  = flag.Int64("max-request-bytes", 0, "max request body bytes (default 1 MB; larger answers 413)")
		readonly     = flag.Bool("readonly", false, "reject every mutating endpoint (POST /insert, /delete) with 403; the graph stays immutable")
	)
	flag.Parse()
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := graph.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}

	build := time.Now()
	eng, err := fastmatch.NewEngine(g, fastmatch.Options{PoolBytes: *pool})
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Printf("indexed %s in %v\n", eng.Stats(), time.Since(build).Round(time.Millisecond))

	svc := eng.Parallel(fastmatch.ServeConfig{
		MaxInFlight:          *maxInFlight,
		QueueTimeout:         *queueTimeout,
		DefaultAlgorithm:     defaultAlgo,
		DefaultTimeout:       *timeout,
		MaxTableRows:         *maxTableRows,
		MaxIntermediateBytes: *maxIMBytes,
		MaxRequestBytes:      *maxReqBytes,
		ReadOnly:             *readonly,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The integration test parses this line to find the chosen port.
	fmt.Printf("listening on %s\n", ln.Addr())

	// -readonly is enforced inside the server's own mutating-route
	// registry (every writer endpoint is wired through one guard), not by
	// matching paths out here where a new route could be forgotten.
	srv := &http.Server{Handler: svc.Handler()}
	// http.Server.Shutdown will not close a connection that has never sent
	// a request until it is 5 s old, which would turn a clean stop into a
	// missed deadline for as long as one client holds a freshly dialled
	// connection. Track those connections and close them once stopping.
	var (
		connMu   sync.Mutex
		stopping bool
		unused   = make(map[net.Conn]struct{})
	)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		connMu.Lock()
		defer connMu.Unlock()
		if st != http.StateNew {
			delete(unused, c)
		} else if stopping {
			c.Close()
		} else {
			unused[c] = struct{}{}
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("shutting down on %v\n", sig)
		connMu.Lock()
		stopping = true
		for c := range unused {
			c.Close()
		}
		connMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
