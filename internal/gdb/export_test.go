package gdb

// SetDecodedMemoBound shrinks (or restores) the decoded memos' size bound so
// a test can force overflow resets on a small graph.
func (db *DB) SetDecodedMemoBound(nodes int) { db.memoBound = nodes }
