// Package cmd_test runs the command-line tools end to end via `go run`,
// checking the generate → query pipeline, the bench harness dispatch, and
// the query server over a real socket.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fastmatch"
)

func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = ".." // module root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestGenerateThenQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.fgm")

	out := run(t, "run", "./cmd/fgmgen", "-nodes", "2500", "-seed", "5", "-out", graphPath, "-cover-stats")
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "twohop{") || strings.Contains(out, "workers") {
		t.Fatalf("fgmgen output: %q", out)
	}
	if st, err := os.Stat(graphPath); err != nil || st.Size() == 0 {
		t.Fatalf("graph file not written: %v", err)
	}

	out = run(t, "run", "./cmd/fgmatch", "-graph", graphPath, "-stats",
		"-query", "site->regions; regions->item", "-limit", "2")
	if !strings.Contains(out, "matches") || !strings.Contains(out, "engine{") {
		t.Fatalf("fgmatch output: %q", out)
	}

	out = run(t, "run", "./cmd/fgmatch", "-graph", graphPath,
		"-query", "person->profile; profile->interest", "-algo", "dp", "-explain")
	if !strings.Contains(out, "DP plan") {
		t.Fatalf("explain output: %q", out)
	}

	out = run(t, "run", "./cmd/fgmatch", "-graph", graphPath,
		"-query", "person->profile; profile->interest", "-analyze", "-limit", "1")
	if !strings.Contains(out, "step 1") {
		t.Fatalf("analyze output: %q", out)
	}
}

// TestServeQuery boots fgmserve on a real TCP socket, queries it over
// HTTP, checks load shedding answers 429 and per-request deadlines answer
// 504, and shuts it down gracefully with SIGTERM.
func TestServeQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.fgm")
	// Big enough that the heavy pattern runs tens of milliseconds — past
	// the runtime's preemption quantum, so concurrent requests genuinely
	// overlap at the admission gate even on a single-CPU machine.
	run(t, "run", "./cmd/fgmgen", "-nodes", "20000", "-seed", "7", "-out", graphPath)

	// Build a real binary (not `go run`) so signals reach the server.
	bin := filepath.Join(dir, "fgmserve")
	run(t, "build", "-o", bin, "./cmd/fgmserve")

	// One execution slot and a queue timeout shorter than a heavy query:
	// a concurrent burst must be shed, not absorbed. Two handlers only
	// overlap with two Ps — on one, the query holding the slot runs to
	// completion before the next handler is scheduled — so the server gets
	// two whatever GOMAXPROCS the suite runs under.
	cmd := exec.Command(bin, "-graph", graphPath, "-addr", "127.0.0.1:0",
		"-max-inflight", "1", "-queue-timeout", "1ms")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The server prints "listening on 127.0.0.1:PORT" once ready.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		t.Fatalf("server never reported its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Post(base+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Incremental edge insert over HTTP: a duplicate pair in one batch must
	// come back as 1 applied + 1 duplicate (or 2 duplicates if the generator
	// already placed the edge), and queries keep working afterwards.
	resp, err = client.Post(base+"/insert", "application/json",
		bytes.NewReader([]byte(`{"edges": [[0, 1], [0, 1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var ir struct {
		Applied    int `json:"applied"`
		Duplicates int `json:"duplicates"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir.Applied+ir.Duplicates != 2 {
		t.Fatalf("insert: status %d, result %+v", resp.StatusCode, ir)
	}

	// Incremental edge delete over HTTP: removing the just-inserted edge
	// and repeating the pair in one batch must come back as 1 applied +
	// 1 no-op, and queries keep working afterwards.
	resp, err = client.Post(base+"/delete", "application/json",
		bytes.NewReader([]byte(`{"edges": [[0, 1], [0, 1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Applied int `json:"applied"`
		Noops   int `json:"noops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || dr.Applied != 1 || dr.Noops != 1 {
		t.Fatalf("delete: status %d, result %+v", resp.StatusCode, dr)
	}

	resp, body := post(`{"pattern": "site->regions; regions->item", "limit": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Cols     []string  `json:"cols"`
		Rows     [][]int64 `json:"rows"`
		RowCount int       `json:"row_count"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if qr.RowCount == 0 || len(qr.Cols) != 3 {
		t.Fatalf("response: %s", body)
	}

	// Client errors map to 400.
	if resp, body = post(`{"pattern": "site->x"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown label: %d %s", resp.StatusCode, body)
	}
	const heavy = `"person->profile; profile->interest; person->watches; site->person"`

	// Load shedding: burst 12 concurrent heavy queries at the single
	// execution slot; whatever is not absorbed within the 1ms queue timeout
	// must be shed with 429, never an error. Scheduling can delay overlap,
	// so allow a few rounds before declaring shedding broken.
	type out struct {
		status int
		body   string
	}
	shed := false
	for round := 0; round < 3 && !shed; round++ {
		results := make(chan out, 12)
		for i := 0; i < 12; i++ {
			// No t.Fatal in these goroutines: report failures as status 0.
			go func() {
				resp, err := client.Post(base+"/query", "application/json",
					bytes.NewReader([]byte(`{"pattern": `+heavy+`}`)))
				if err != nil {
					results <- out{0, err.Error()}
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				results <- out{resp.StatusCode, string(b)}
			}()
		}
		counts := map[int]int{}
		for i := 0; i < 12; i++ {
			r := <-results
			if r.status != http.StatusOK && r.status != http.StatusTooManyRequests {
				t.Fatalf("burst: unexpected %d: %s", r.status, r.body)
			}
			counts[r.status]++
		}
		if counts[http.StatusOK] == 0 {
			t.Fatalf("burst: no query succeeded: %v", counts)
		}
		shed = counts[http.StatusTooManyRequests] > 0
	}
	if !shed {
		t.Fatal("burst: nothing was shed with 429 in 3 rounds")
	}
	// A rejected client that backs off must succeed once the burst drains.
	resp, body = post(`{"pattern": ` + heavy + `, "limit": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst query: %d %s", resp.StatusCode, body)
	}

	var stats struct {
		Queries  int64 `json:"queries"`
		InFlight int   `json:"in_flight"`
	}
	resp, err = client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries < 1 {
		t.Fatalf("stats: %+v", stats)
	}

	// Graceful shutdown on SIGTERM, with a never-used connection open (and
	// whatever the burst's transport dialled speculatively): a client that
	// connected and sent nothing must not hold the server past its
	// shutdown deadline or turn the stop into a non-zero exit.
	idle, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not shut down within 2s of SIGTERM")
	}

	// Deadline honoring: a server whose default per-query budget (-timeout)
	// is already elapsed by execution's first context poll answers 504 to
	// every query. This is deterministic, unlike racing a real clock. The
	// same instance runs -readonly, so every mutating endpoint must
	// answer 403.
	slow := exec.Command(bin, "-graph", graphPath, "-addr", "127.0.0.1:0", "-timeout", "1ns", "-readonly")
	slowOut, err := slow.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	slow.Stderr = os.Stderr
	if err := slow.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		slow.Process.Signal(syscall.SIGTERM)
		slow.Wait()
	}()
	base = ""
	sc = bufio.NewScanner(slowOut)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		t.Fatalf("slow server never reported its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, slowOut)
	resp, body = post(`{"pattern": ` + heavy + `}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d %s, want 504", resp.StatusCode, body)
	}
	for _, path := range []string{"/insert", "/delete"} {
		resp, err = client.Post(base+path, "application/json",
			bytes.NewReader([]byte(`{"edges": [[0, 1]]}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("readonly %s: status %d, want 403", path, resp.StatusCode)
		}
	}
}

// fails runs a go command that must exit non-zero and returns its output.
func fails(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go %s should fail, got: %s", strings.Join(args, " "), out)
	}
	return string(out)
}

// TestBenchList pins fgmbench to the paper's experiments and the ablations:
// the retired micro-harness IDs and their -out/-compare flags are usage
// errors, not silently accepted.
func TestBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := filepath.Join(t.TempDir(), "fgmbench")
	run(t, "build", "-o", bin, "./cmd/fgmbench")
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := "table2 fig5a fig5b fig6a fig6b fig6c fig6d fig7a fig7b fig7c iocost " +
		"ablation-order ablation-pool ablation-naive"
	if got := strings.Join(strings.Fields(string(out)), " "); got != want {
		t.Fatalf("fgmbench -list:\n got %s\nwant %s", got, want)
	}
	for _, args := range [][]string{
		{"-exp", "rjoin"}, {"-exp", "ablation-wcache"}, {"-exp", "ablation-merged"},
		{"-exp", "table2", "-out", "x.json"}, {"-exp", "table2", "-compare", "x.json"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "Usage of") {
			t.Fatalf("fgmbench %v: err %v, want a usage error (status 2):\n%s", args, err, out)
		}
	}
	// One tiny real experiment through the CLI.
	out, err = exec.Command(bin, "-exp", "table2", "-mult", "0.05").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "table2") || !strings.Contains(string(out), "100M") {
		t.Fatalf("table2: %v\n%s", err, out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fails(t, "run", "./cmd/fgmatch", "-query", "A->B")
	fails(t, "run", "./cmd/fgmbench", "-exp", "nope")
	dir := t.TempDir()
	bin := func(cmd string) string {
		path := filepath.Join(dir, cmd)
		if _, err := os.Stat(path); err != nil {
			run(t, "build", "-o", path, "./cmd/"+cmd)
		}
		return path
	}
	usageError := func(cmd, want string, args ...string) {
		t.Helper()
		out, err := exec.Command(bin(cmd), args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), want) {
			t.Fatalf("%s %v: err %v, want a usage error (status 2) saying %q:\n%s", cmd, args, err, want, out)
		}
	}
	// Both binaries parse -algo with fastmatch.ParseAlgorithm as a flag
	// value: a known spelling gets as far as the missing -graph, an unknown
	// one — including the retired "dps-merged" and "wcoj" — is a usage
	// error carrying the parser's message.
	for _, cmd := range []string{"fgmserve", "fgmatch"} {
		for _, good := range []string{"dp", "dps"} {
			if out, err := exec.Command(bin(cmd), "-algo", good).CombinedOutput(); err == nil || !strings.Contains(string(out), "-graph is required") {
				t.Fatalf("%s -algo %s should be accepted: %v\n%s", cmd, good, err, out)
			}
		}
		for _, bad := range []string{"nope", "dps-merged", "wcoj"} {
			usageError(cmd, fmt.Sprintf("unknown algorithm %q (want dp or dps)", bad), "-algo", bad)
		}
	}
	// fgmatch -explain only plans and -analyze runs unbudgeted, so a budget
	// flag beside either would be ignored: the combination is refused.
	for _, mode := range []string{"-analyze", "-explain"} {
		for _, budget := range [][2]string{{"-budget-rows", "5"}, {"-budget-bytes", "1000"}} {
			usageError("fgmatch", "cannot be combined with -explain or -analyze", mode, budget[0], budget[1], "-query", "A->B")
		}
	}
	// Removed flags are usage errors (status 2): operators run on the
	// query's goroutine and the index build is serial, so there is no
	// worker degree; the engine has one reachability labeling, so there is
	// no backend to choose; and the plan cache has a fixed size.
	for _, c := range []struct{ cmd, flag, value string }{
		{"fgmserve", "-parallelism", "2"},
		{"fgmserve", "-reach-index", "pll"},
		{"fgmatch", "-reach-index", "pll"},
		{"fgmgen", "-reach-index", "pll"},
		{"fgmatch", "-build-parallelism", "2"},
		{"fgmserve", "-build-parallelism", "2"},
		{"fgmgen", "-build-parallelism", "2"},
		{"fgmbench", "-build-parallelism", "2"},
		{"fgmserve", "-plancache", "256"},
	} {
		usageError(c.cmd, "flag provided but not defined: "+c.flag, c.flag, c.value)
	}
}

// TestRepackCLI persists a database, fragments it with inserts, and checks
// `fgmatch -db ... -repack ...` produces a byte-stable bulk-loaded copy:
// two runs write identical page files and manifests.
func TestRepackCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "src.fdb")

	b := fastmatch.NewGraphBuilder()
	var nodes []fastmatch.NodeID
	for i := 0; i < 60; i++ {
		nodes = append(nodes, b.AddNode(string(rune('A'+i%3))))
	}
	for i := 0; i+1 < 40; i++ {
		b.AddEdge(nodes[i], nodes[i+1])
	}
	eng, err := fastmatch.NewEngine(b.Build(), fastmatch.Options{Path: src})
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i+1 < 60; i++ {
		if _, err := eng.InsertEdge(nodes[i], nodes[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	p1 := filepath.Join(dir, "p1.fdb")
	p2 := filepath.Join(dir, "p2.fdb")
	out := run(t, "run", "./cmd/fgmatch", "-db", src, "-repack", p1)
	if !strings.HasPrefix(out, "repacked "+src) || strings.Contains(out, "backend") {
		t.Fatalf("repack output: %q", out)
	}
	run(t, "run", "./cmd/fgmatch", "-db", src, "-repack", p2)
	for _, suffix := range []string{"", ".manifest"} {
		b1, err := os.ReadFile(p1 + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(p2 + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("repack output %q is not byte-stable across runs", suffix)
		}
	}

	packed, err := fastmatch.OpenEngine(p1, fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	ok, err := packed.Reaches(nodes[40], nodes[59])
	if err != nil || !ok {
		t.Fatalf("repacked database lost inserted edges: ok=%v err=%v", ok, err)
	}
}
