package fastmatch_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastmatch"
	"fastmatch/internal/xmark"
)

// paperEngine builds an engine over the Figure 1 data graph.
func paperEngine(t testing.TB) (*fastmatch.Engine, map[string]fastmatch.NodeID) {
	t.Helper()
	b := fastmatch.NewGraphBuilder()
	ids := map[string]fastmatch.NodeID{}
	add := func(name, label string) { ids[name] = b.AddNode(label) }
	add("a0", "A")
	for _, n := range []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6"} {
		add(n, "B")
	}
	for _, n := range []string{"c0", "c1", "c2", "c3"} {
		add(n, "C")
	}
	for _, n := range []string{"d0", "d1", "d2", "d3", "d4", "d5"} {
		add(n, "D")
	}
	for _, n := range []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"} {
		add(n, "E")
	}
	for _, e := range [][2]string{
		{"a0", "b3"}, {"a0", "b4"}, {"a0", "b5"}, {"a0", "c0"},
		{"b3", "c2"}, {"b4", "c2"}, {"b5", "c3"}, {"b6", "c3"},
		{"b0", "c1"}, {"b1", "c1"}, {"b2", "c1"}, {"b1", "c3"},
		{"c0", "d0"}, {"c0", "d1"}, {"c0", "e0"},
		{"c1", "d2"}, {"c1", "d3"}, {"c1", "e7"},
		{"c2", "e2"}, {"c3", "d4"}, {"c3", "d5"},
		{"d0", "e0"}, {"d2", "e1"}, {"d4", "e3"}, {"e4", "e5"},
	} {
		b.AddEdge(ids[e[0]], ids[e[1]])
	}
	eng, err := fastmatch.NewEngine(b.Build(), fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, ids
}

func TestEngineQueryPaperPattern(t *testing.T) {
	eng, ids := paperEngine(t)
	// The pattern of Figure 1(b).
	res, err := eng.Query("A->C; B->C; C->D; D->E")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("paper pattern should match")
	}
	// Every row must satisfy all four conditions (checked via Reaches).
	for _, row := range res.Rows {
		for _, cond := range [][2]int{{0, 1}, {2, 1}, {1, 3}, {3, 4}} {
			ok, err := eng.Reaches(row[cond[0]], row[cond[1]])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("row %v violates condition %v", row, cond)
			}
		}
	}
	// One known match from the graph: a0 ⇝ c3 (via b5), b1 ⇝ c3, c3 ⇝ d4,
	// d4 ⇝ e3.
	found := false
	for _, row := range res.Rows {
		if row[0] == ids["a0"] && row[1] == ids["c3"] && row[2] == ids["b1"] &&
			row[3] == ids["d4"] && row[4] == ids["e3"] {
			found = true
		}
	}
	if !found {
		t.Fatal("expected match (a0, c3, b1, d4, e3) not present")
	}
}

func TestEngineDPMatchesDPS(t *testing.T) {
	eng, _ := paperEngine(t)
	p, err := fastmatch.ParsePattern("A->C; B->C; C->D")
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.QueryPattern(p, fastmatch.DP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.QueryPattern(p, fastmatch.DPS)
	if err != nil {
		t.Fatal(err)
	}
	a.SortRows()
	b.SortRows()
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("DP %d rows != DPS %d rows", a.Len(), b.Len())
	}
}

func TestEngineExplain(t *testing.T) {
	eng, _ := paperEngine(t)
	p, _ := fastmatch.ParsePattern("A->C; B->C; C->D; D->E")
	for _, algo := range []fastmatch.Algorithm{fastmatch.DP, fastmatch.DPS} {
		plan, err := eng.Explain(p, algo)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.String(), "->") {
			t.Fatalf("unhelpful plan: %s", plan)
		}
	}
	res, plan, traces, err := eng.ExplainAnalyze(p, fastmatch.DPS)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || plan == nil || len(traces) != len(plan.Steps) {
		t.Fatalf("ExplainAnalyze: res=%v traces=%d steps=%d", res, len(traces), len(plan.Steps))
	}
}

func TestEngineStats(t *testing.T) {
	eng, ids := paperEngine(t)
	st := eng.Stats()
	if st.Nodes != 26 || st.Edges != 25 || st.Labels != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CoverSize <= 0 || st.Centers <= 0 || st.SizeBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty String")
	}
	// Stats follows the writes: e7->a0 adds an edge and label entries.
	ins, err := eng.InsertEdge(ids["e7"], ids["a0"])
	if err != nil || ins.LabelEntries == 0 {
		t.Fatalf("insert e7->a0: %+v, %v", ins, err)
	}
	st2 := eng.Stats()
	if st2.Edges != st.Edges+1 || st2.CoverSize != st.CoverSize+ins.LabelEntries {
		t.Fatalf("stats after insert = %+v, want |E| %d and |H| %d", st2, st.Edges+1, st.CoverSize+ins.LabelEntries)
	}
}

func TestEngineFileBacked(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 3000, Seed: 1})
	path := filepath.Join(t.TempDir(), "engine.pages")
	eng, err := fastmatch.NewEngine(d.Graph, fastmatch.Options{Path: path, PoolBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query("site->regions; regions->item")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("expected matches on xmark data")
	}
	if eng.IOStats().Logical() == 0 {
		t.Fatal("expected counted I/O")
	}
	eng.ResetIOStats()
	if eng.IOStats().Logical() != 0 {
		t.Fatal("ResetIOStats did not reset")
	}
}

func TestEngineQueryErrors(t *testing.T) {
	eng, _ := paperEngine(t)
	if _, err := eng.Query("not a pattern"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := eng.Query("A->Z"); err == nil {
		t.Fatal("expected unknown-label error")
	}
}

func TestOpenEngineRoundTrip(t *testing.T) {
	d := xmark.Generate(xmark.Config{Nodes: 3000, Seed: 2})
	path := filepath.Join(t.TempDir(), "engine.pages")
	eng, err := fastmatch.NewEngine(d.Graph, fastmatch.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	const q = "person->profile; profile->interest; interest->category"
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want.SortRows()
	st := eng.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := fastmatch.OpenEngine(path, fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	got, err := eng2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got.SortRows()
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("reopened engine: %d rows, want %d", got.Len(), want.Len())
	}
	st2 := eng2.Stats()
	if st2.Nodes != st.Nodes || st2.Edges != st.Edges || st2.CoverSize != st.CoverSize || st2.Centers != st.Centers {
		t.Fatalf("stats changed after reopen: %+v vs %+v", st2, st)
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	eng, _ := paperEngine(t)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 25; i++ {
				q := "A->C; B->C; C->D"
				if w%2 == 0 {
					q = "C->D; D->E"
				}
				res, err := eng.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() == 0 {
					errs <- fmt.Errorf("worker %d: empty result", w)
					return
				}
				if _, err := eng.Reaches(0, 1); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReachabilityOracle(t *testing.T) {
	b := fastmatch.NewGraphBuilder()
	var ids []fastmatch.NodeID
	for i := 0; i < 6; i++ {
		ids = append(ids, b.AddNode("pkg"))
	}
	b.AddEdge(ids[0], ids[1])
	b.AddEdge(ids[1], ids[2])
	o := fastmatch.NewReachabilityOracle(b.Build())
	if !o.Reaches(ids[0], ids[2]) || o.Reaches(ids[2], ids[0]) {
		t.Fatal("seed reachability wrong")
	}
	if o.LabelEntries() < 0 {
		t.Fatal("negative labeling size")
	}
	if added := o.InsertEdge(ids[2], ids[3]); len(added) == 0 {
		t.Fatal("new edge should add labels")
	}
	if !o.Reaches(ids[0], ids[3]) {
		t.Fatal("transitive update missing")
	}
	if added := o.InsertEdge(ids[0], ids[3]); len(added) != 0 {
		t.Fatal("redundant edge should add nothing")
	}
}
