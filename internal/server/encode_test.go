package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"fastmatch/internal/graph"
)

// TestQueryResponseEncoding: the hand-rolled row encoder must write exactly
// what encoding/json writes for the same QueryResponse, so no client can
// tell the two apart.
func TestQueryResponseEncoding(t *testing.T) {
	big := make([][]graph.NodeID, 100_000)
	arena := make([]graph.NodeID, 3*len(big))
	for i := range big {
		row := arena[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = graph.NodeID(i), graph.NodeID(i*7919%1_000_003), graph.NodeID(2147483647-i)
		big[i] = row
	}
	cases := map[string]QueryResponse{
		"empty":     {Cols: []string{"A", "B"}, Rows: [][]graph.NodeID{}, ElapsedMS: 0.004},
		"one row":   {Cols: []string{"person"}, Rows: [][]graph.NodeID{{42}}, RowCount: 1, PlanCached: true, ElapsedMS: 12},
		"truncated": {Cols: []string{"a\"b", "<c>", "é"}, Rows: [][]graph.NodeID{{1, 2, 3}, {4, 5, 6}}, RowCount: 2, Truncated: true, ElapsedMS: 1e-7},
		"nil rows":  {Cols: nil, Rows: nil, ElapsedMS: 1234567.891},
		"nil row":   {Cols: []string{"A"}, Rows: [][]graph.NodeID{nil, {}, {-1}}, RowCount: 3},
		"100k rows": {Cols: []string{"A", "B", "C"}, Rows: big, RowCount: len(big), ElapsedMS: 87.125},
	}
	for name, resp := range cases {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendQueryResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder and json.Marshal disagree (%d vs %d bytes)\n got %.200s\nwant %.200s", name, len(got), len(want), got, want)
		}
		// The HTTP body is that plus the newline json.Encoder always wrote,
		// also when the pooled buffer comes back from an earlier response.
		for range 2 {
			rec := httptest.NewRecorder()
			writeQueryResponse(rec, &resp)
			if body := rec.Body.Bytes(); !bytes.Equal(body, append(want[:len(want):len(want)], '\n')) {
				t.Errorf("%s: HTTP body differs from json.Marshal + newline (%d vs %d bytes)", name, len(body), len(want)+1)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != 200 {
				t.Errorf("%s: status %d content type %q", name, rec.Code, ct)
			}
		}
	}
}
