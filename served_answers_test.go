package fastmatch_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/server"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

var updateServed = flag.Bool("update", false, "rewrite testdata/served_answers.txt from this tree's answers")

const servedAnswersFile = "testdata/served_answers.txt"

// servedQuery is one POST /query body of the golden battery.
type servedQuery struct {
	name, pattern string
	limit         int
}

// servedDataset is one database the battery is served from.
type servedDataset struct {
	name    string
	graph   func() *graph.Graph
	queries func() []servedQuery
}

func fromWorkloads(sets ...[]workload.Workload) []servedQuery {
	var qs []servedQuery
	for _, set := range sets {
		for _, w := range set {
			qs = append(qs, servedQuery{name: w.Name, pattern: w.Pattern.String()})
		}
	}
	return qs
}

// xmarkQueries are the served read_pipeline and read_fastpath batteries.
func xmarkQueries() []servedQuery {
	qs := fromWorkloads(workload.Paths(), workload.Trees(), workload.Graphs4B(), workload.Cyclic())
	return append(qs,
		servedQuery{name: "F1", pattern: "site->name"},
		servedQuery{name: "F2", pattern: "site->description"},
		servedQuery{name: "F3", pattern: "open_auction->name"},
		servedQuery{name: "F4", pattern: "person->profile"},
		servedQuery{name: "F5-point", pattern: "site->samerica"},
		servedQuery{name: "F6-impossible", pattern: "categories->site"},
		servedQuery{name: "F7-limit", pattern: "site->name; site->description", limit: 10000},
	)
}

func servedDatasets() []servedDataset {
	return []servedDataset{
		{name: "xmark100k", queries: xmarkQueries,
			graph: func() *graph.Graph { return xmark.Generate(xmark.Config{Nodes: 100000, Seed: 1}).Graph }},
		{name: "skew20k", queries: func() []servedQuery { return fromWorkloads(workload.Skew()) },
			graph: func() *graph.Graph { return workload.PowerLawDAG(1, 20000) }},
	}
}

// TestServedAnswers pins what POST /query puts on the wire. Every query of
// the served batteries goes through an in-process server, and its line in
// testdata/served_answers.txt records the row count, an order-independent
// hash of the rows, a SHA-256 of the body in order (elapsed_ms and
// plan_cached cut off) and the DPS plan. A changed row hash is a wrong
// answer; a changed body hash or plan is a changed row order or plan, which
// a change must explain. Each dataset's first line pins the build itself:
// the cover size |H|, the center count and the page-file size, so a change
// to the labeling or the page layout fails here too. -update rewrites the
// file.
func TestServedAnswers(t *testing.T) {
	want := readServedAnswers(t)
	var got []string
	for _, ds := range servedDatasets() {
		got = append(got, serveBattery(t, ds)...)
	}
	if *updateServed {
		var b bytes.Buffer
		b.WriteString("# dataset query row_count row_hash body_sha256 | DPS plan; dataset build |H| centers size_bytes; go test -run TestServedAnswers -update . rewrites this file\n")
		for _, line := range got {
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(servedAnswersFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, %s holds %d", len(got), servedAnswersFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("served answer changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// readServedAnswers returns the golden file's answer lines.
func readServedAnswers(t *testing.T) []string {
	f, err := os.Open(servedAnswersFile)
	if os.IsNotExist(err) && *updateServed {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// serveBattery builds ds's database and answers its queries through a
// server's HTTP handler: one golden line for the build, then one per query.
func serveBattery(t *testing.T, ds servedDataset) []string {
	db, err := gdb.Build(ds.graph(), gdb.Options{PoolBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{})
	h := srv.Handler()
	lines := []string{fmt.Sprintf("%s build |H|=%d centers=%d size_bytes=%d",
		ds.name, db.CoverSize(), db.NumCenters(), db.SizeBytes())}
	for _, q := range ds.queries() {
		req, _ := json.Marshal(server.QueryRequest{Pattern: q.pattern, Limit: q.limit}) // strings and ints cannot fail
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", ds.name, q.name, rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s %s: %v", ds.name, q.name, err)
		}
		if resp.RowCount != len(resp.Rows) {
			t.Fatalf("%s %s: row_count %d but %d rows", ds.name, q.name, resp.RowCount, len(resp.Rows))
		}
		// The body up to plan_cached is everything but the two fields that
		// vary between runs.
		cut := bytes.Index(body, []byte(`,"plan_cached":`))
		if cut < 0 {
			t.Fatalf("%s %s: no plan_cached in %.200s", ds.name, q.name, body)
		}
		p, err := pattern.Parse(q.pattern)
		if err != nil {
			t.Fatal(err)
		}
		snap, release := db.Pin()
		plan, err := exec.BuildPlanSnapConfig(snap, p, exec.DPS, exec.PlanConfig{})
		release()
		if err != nil {
			t.Fatalf("%s %s: %v", ds.name, q.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %d %016x %x | %s",
			ds.name, q.name, resp.RowCount, rowSetHash(resp.Rows), sha256.Sum256(body[:cut]), planLine(plan)))
	}
	// Every partner list and bitmap the battery built fits the epoch's
	// memo bound: none was dropped and rebuilt.
	st := srv.Stats()
	if st.DecodedMemoResets != 0 || st.PartnerBitmaps == 0 {
		t.Fatalf("%s: after the battery the partner tables reset %d times and hold %d bitmaps (%d bytes in all)",
			ds.name, st.DecodedMemoResets, st.PartnerBitmaps, st.DecodedMemoBytes)
	}
	t.Logf("%s: %d partner tables, %d bitmaps, %d bytes", ds.name, st.PartnerTables, st.PartnerBitmaps, st.DecodedMemoBytes)
	return lines
}

// rowSetHash is an order-independent hash of rows: the sum of each row's
// SHA-256 prefix.
func rowSetHash(rows [][]graph.NodeID) uint64 {
	var sum uint64
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h := sha256.Sum256(buf)
		sum += binary.LittleEndian.Uint64(h[:8])
	}
	return sum
}

// planLine is a plan's steps on one line: kind, group node and side, edges.
func planLine(p *optimizer.Plan) string {
	nodes := p.Binding.Pattern.Nodes
	var parts []string
	for _, s := range p.Steps {
		var sb strings.Builder
		sb.WriteString(s.Kind.String())
		if s.Kind == optimizer.StepSemijoinGroup {
			side := "in"
			if s.OutSide {
				side = "out"
			}
			fmt.Fprintf(&sb, " %s/%s:", nodes[s.Node], side)
		}
		for _, e := range s.Edges {
			pe := p.Binding.Pattern.Edges[e]
			fmt.Fprintf(&sb, " %s->%s", nodes[pe.From], nodes[pe.To])
		}
		parts = append(parts, sb.String())
	}
	return strings.Join(parts, " | ")
}
