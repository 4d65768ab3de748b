//go:build fgmcheck

package server

import "unsafe"

// at is the checked twin of store.go's, for `go test -tags fgmcheck`:
// every byte of the store must lie inside b, the buffer up to its
// capacity — which neither -race nor -d=checkptr checks of an unsafe.Add
// store.
func at(b []byte, _ unsafe.Pointer, n, size int) unsafe.Pointer {
	_ = b[n+size-1]
	return unsafe.Pointer(&b[n])
}
