package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/server"
)

// instance is one workload's database served in-process over loopback
// HTTP, plus the timings of the phases that built it.
type instance struct {
	g    *graph.Graph // the base graph, before any write
	idx  reach.Index  // its labeling, as built
	db   *gdb.DB
	srv  *server.Server
	url  string
	http *http.Server
	done chan error // result of http.Server.Serve
	dir  string     // temp directory of a file-backed database

	// Phase timings in seconds; their sum is setup_s.
	generateS, reachS, buildS, openS, listenS float64
	indexBytes                                int // db.SizeBytes() as built, before any query spills
}

func (in *instance) setupSeconds() float64 {
	return in.generateS + in.reachS + in.buildS + in.openS + in.listenS
}

// shipped is the configuration fgmserve builds when started with no flags:
// every field zero except the planner, which its -algo flag defaults to
// DPS. (The zero Config alone plans with DP, whatever its field comment
// says, because exec.DP is the zero Algorithm.) Everything else is left to
// the server's own defaults, so a later change of defaults shows.
var shipped = server.Config{DefaultAlgorithm: exec.DPS}

// setup generates the workload's graph, builds its index the way gdb.Build
// does (default backend, then BuildFromIndex), and serves it as fgmserve
// would.
func setup(s spec, seed int64, nodes int, outDir string) (*instance, error) {
	in := &instance{}
	t := time.Now()
	lap := func() float64 {
		d := time.Since(t).Seconds()
		t = time.Now()
		return d
	}
	in.g = s.generate(seed, nodes)
	in.generateS = lap()

	backend, err := reach.Lookup("")
	if err != nil {
		return nil, err
	}
	in.idx = backend.Build(in.g, reach.Options{})
	in.reachS = lap()

	opt := gdb.Options{PoolBytes: s.poolBytes}
	if s.fileBacked {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if in.dir, err = os.MkdirTemp(outDir, "db-"); err != nil {
			return nil, err
		}
		opt.Path = filepath.Join(in.dir, "graph.fdb")
	}
	if in.db, err = gdb.BuildFromIndex(in.g, in.idx, opt); err != nil {
		in.close()
		return nil, fmt.Errorf("build: %w", err)
	}
	in.buildS = lap()

	if s.fileBacked {
		if err := in.db.Close(); err != nil {
			in.close()
			return nil, fmt.Errorf("close built database: %w", err)
		}
		if in.db, err = gdb.Open(opt.Path, gdb.Options{PoolBytes: s.poolBytes}); err != nil {
			in.close()
			return nil, fmt.Errorf("reopen: %w", err)
		}
		in.openS = lap()
	}

	in.indexBytes = in.db.SizeBytes()

	in.srv = server.New(in.db, shipped)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.url = "http://" + ln.Addr().String()
	in.http = &http.Server{Handler: in.srv.Handler()}
	in.done = make(chan error, 1)
	go func() { in.done <- in.http.Serve(ln) }()
	in.listenS = lap()
	return in, nil
}

// close stops the HTTP server, waits for its accept loop to return, closes
// the database and removes the page file.
func (in *instance) close() error {
	var errs []error
	if in.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, in.http.Shutdown(ctx))
		cancel()
		if err := <-in.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if in.db != nil {
		errs = append(errs, in.db.Close())
	}
	if in.dir != "" {
		errs = append(errs, os.RemoveAll(in.dir))
	}
	return errors.Join(errs...)
}
