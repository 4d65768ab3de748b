//go:build fgmcheck

package rjoin

import (
	"unsafe"

	"fastmatch/internal/graph"
)

// poisonByte fills every byte of a released buffer under `go test -tags
// fgmcheck`, so a node read from one is poisonNode: a negative ID no graph
// holds, which changes an answer's hash or fails the read.
const poisonByte = 0xA5

// poisonNode is a node ID read from a released buffer: 0xA5A5A5A5.
const poisonNode = graph.NodeID(-0x5A5A5A5B)

// poison is the checked twin of poison.go's: it overwrites b before its
// buffer returns to the pool.
func poison[T any](b []T) {
	if len(b) == 0 {
		return
	}
	bs := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b)*int(unsafe.Sizeof(b[0])))
	for i := range bs {
		bs[i] = poisonByte
	}
}
