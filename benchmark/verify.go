package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/server"
)

// answer identifies a result set independently of row and column order: the
// row count and the wrapping sum of per-row hashes.
type answer struct {
	Rows int
	Hash uint64
}

// rowHashes hashes each row with its columns taken in label-name order, so
// two plans that bind the pattern's nodes in different orders agree.
func rowHashes(cols []string, rows [][]graph.NodeID) []uint64 {
	perm := make([]int, len(cols))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return cols[perm[a]] < cols[perm[b]] })
	out := make([]uint64, len(rows))
	for i, row := range rows {
		h := uint64(14695981039346656037)
		for _, c := range perm {
			h = (h ^ uint64(uint32(row[c]))) * 1099511628211
			h ^= h >> 29
		}
		out[i] = h
	}
	return out
}

func answerOf(hashes []uint64) answer {
	a := answer{Rows: len(hashes)}
	for _, h := range hashes {
		a.Hash += h
	}
	return a
}

// queryHTTP sends q over HTTP and fully decodes the reply.
func queryHTTP(c *http.Client, url string, q query) (server.QueryResponse, error) {
	var resp server.QueryResponse
	body, _ := json.Marshal(server.QueryRequest{Pattern: q.Pattern, Limit: q.Limit}) // plain strings and ints cannot fail
	var buf bytes.Buffer
	status, err := post(c, url+"/query", body, &buf)
	if err != nil {
		return resp, err
	}
	if status != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return resp, err
	}
	if resp.RowCount != len(resp.Rows) {
		return resp, fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	return resp, nil
}

// answersHTTP asks the server every query and returns its answers.
func answersHTTP(url string, qs []query) ([]answer, error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	out := make([]answer, len(qs))
	for i, q := range qs {
		resp, err := queryHTTP(c, url, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		out[i] = answerOf(rowHashes(resp.Cols, resp.Rows))
	}
	return out, nil
}

// runInProcess evaluates p on snap with the given planner, stopping at
// limit rows when limit is positive.
func runInProcess(snap *gdb.Snap, p *pattern.Pattern, algo exec.Algorithm, limit int) ([]uint64, error) {
	plan, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
	if err != nil {
		return nil, err
	}
	t, err := exec.RunSnapConfig(context.Background(), snap, plan, exec.RunConfig{Budget: &rjoin.Budget{ResultRows: limit}})
	if err != nil {
		return nil, err
	}
	return rowHashes(p.Nodes, t.Rows), nil
}

// checkRows tests rows against the pattern's definition directly: every
// column holds a node of its label and every edge's endpoints are
// reachable. It is how a limited query is verified, since which prefix of
// the full answer a limit keeps depends on the plan.
func checkRows(snap *gdb.Snap, p *pattern.Pattern, cols []string, rows [][]graph.NodeID) error {
	g := snap.Graph()
	at := make([]int, len(p.Nodes)) // pattern node → response column
	for i, name := range p.Nodes {
		at[i] = slices.Index(cols, name)
		if at[i] < 0 {
			return fmt.Errorf("no column for %s", name)
		}
	}
	for _, row := range rows {
		for i, name := range p.Nodes {
			if got := g.LabelNameOf(row[at[i]]); got != name {
				return fmt.Errorf("row %v: node %d is a %s, want %s", row, row[at[i]], got, name)
			}
		}
		for _, e := range p.Edges {
			ok, err := snap.Reaches(row[at[e.From]], row[at[e.To]])
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("row %v: %s does not reach %s", row, p.Nodes[e.From], p.Nodes[e.To])
			}
		}
	}
	return nil
}

// crossCheck compares the server's HTTP answer to each query against an
// in-process run under a different planner (DP; the server defaults to DPS)
// on one pinned snapshot: row count and order-independent hash. For a
// limited query the two prefixes may differ, so the counts must agree and
// the HTTP rows must be distinct matches by checkRows. It returns the HTTP
// answers, which the timed window then checks row counts against.
func crossCheck(in *instance, qs []query) ([]answer, error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	snap, release := in.db.Pin()
	defer release()
	out := make([]answer, len(qs))
	for i, q := range qs {
		resp, err := queryHTTP(c, in.url, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		got := rowHashes(resp.Cols, resp.Rows)
		out[i] = answerOf(got)
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		ref, err := runInProcess(snap, p, exec.DP, q.Limit)
		if err != nil {
			return nil, fmt.Errorf("%s under DP: %w", q.Name, err)
		}
		if q.Limit == 0 {
			if want := answerOf(ref); out[i] != want {
				return nil, fmt.Errorf("%s: HTTP (DPS) answered %+v, in-process DP %+v", q.Name, out[i], want)
			}
			continue
		}
		if len(got) != len(ref) {
			return nil, fmt.Errorf("%s: %d rows over HTTP, %d in process under DP", q.Name, len(got), len(ref))
		}
		slices.Sort(got)
		if len(slices.Compact(got)) != len(ref) {
			return nil, fmt.Errorf("%s: duplicate rows under the limit", q.Name)
		}
		if err := checkRows(snap, p, resp.Cols, resp.Rows); err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
	}
	return out, nil
}

// naiveCheck builds a small copy of the workload's dataset and compares the
// engine's default planner against the backtracking matcher on every query.
func naiveCheck(s spec, seed int64, qs []query) error {
	g := s.generate(seed, naiveNodes)
	db, err := gdb.Build(g, gdb.Options{PoolBytes: largePool})
	if err != nil {
		return err
	}
	defer db.Close()
	snap, release := db.Pin()
	defer release()
	for _, q := range qs {
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		got, err := runInProcess(snap, p, exec.DPS, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		t, err := exec.NaiveMatch(g, p)
		if err != nil {
			return fmt.Errorf("%s: naive: %w", q.Name, err)
		}
		if a, b := answerOf(got), answerOf(rowHashes(p.Nodes, t.Rows)); a != b {
			return fmt.Errorf("%s on the %d-node copy: engine %+v, naive matcher %+v", q.Name, naiveNodes, a, b)
		}
	}
	return nil
}
