package gdb

import (
	"slices"

	"fastmatch/internal/graph"
)

// CheckStoredCodes reports whether a stored code in the base tables of the
// current epoch holds its own node, and whether the codes the writer seeds
// its labeling from on a reattached database (the decoded codes minus the
// node itself) differ from those stored codes.
func (db *DB) CheckStoredCodes() (selfEntry, differ bool, err error) {
	s, release := db.Pin()
	defer release()
	stored, err := db.storedCodes(s.g, s.base, s.coverSize)
	if err != nil {
		return false, false, err
	}
	in, out := s.storedCodes()
	for v := graph.NodeID(0); int(v) < s.g.NumNodes(); v++ {
		selfEntry = selfEntry || slices.Contains(stored.In(v), v) || slices.Contains(stored.Out(v), v)
		differ = differ || !slices.Equal(stored.In(v), in[v]) || !slices.Equal(stored.Out(v), out[v])
	}
	return selfEntry, differ, nil
}
