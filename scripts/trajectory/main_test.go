package main

import (
	"strings"
	"testing"
)

// TestTrajectory: the fixture files come out in numeric order (BENCH_2
// before BENCH_10), each workload's ratio multiplies into its chain, a
// workload a file did not run is a dash, and only a claim that holds is
// bold.
func TestTrajectory(t *testing.T) {
	var b strings.Builder
	if err := trajectory(&b, "testdata"); err != nil {
		t.Fatal(err)
	}
	want := `| claim file | base | head | w_a | w_b | w_c |
|---|---|---|---|---|---|
| BENCH_2.json | aaaaaaa | bbbbbbb | **1.250** [1.250] | 0.950 [0.950] | — |
| BENCH_10.json | ccccccc | ddddddd | 1.100 [1.375] | — | 1.200 [1.200] |
`
	if got := b.String(); !strings.HasPrefix(got, want) {
		t.Fatalf("got\n%s\nwant a table starting\n%s", got, want)
	}
	if err := trajectory(&b, t.TempDir()); err == nil {
		t.Fatal("a directory without claim files gave no error")
	}
}
