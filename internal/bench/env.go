package bench

import (
	"fmt"
	"runtime"
)

// Env records the machine context a benchmark artifact was produced under,
// so numbers in bench_results.txt can be compared across runs with their
// parallelism in view: build parallelism means something very different on
// a 1-CPU box than on 16.
type Env struct {
	// GOMAXPROCS is the scheduler's processor limit at measurement time.
	GOMAXPROCS int
	// NumCPU is the machine's logical CPU count.
	NumCPU int
	// GoVersion, GOOS, and GOARCH identify the toolchain and platform.
	GoVersion string
	GOOS      string
	GOARCH    string
}

// CurrentEnv captures the running process's environment.
func CurrentEnv() Env {
	return Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// String renders the one-line header stamped on text artifacts.
func (e Env) String() string {
	return fmt.Sprintf("env: GOMAXPROCS=%d NumCPU=%d %s %s/%s",
		e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.GOOS, e.GOARCH)
}
