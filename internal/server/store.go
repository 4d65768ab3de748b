//go:build !fgmcheck

package server

import "unsafe"

// at returns the address of b[n], where putRun stores size bytes; p is
// b's data pointer. It checks nothing: putRun's one slice check covers a
// whole run of stores. The fgmcheck build (store_checked.go) checks each
// store instead, so a run that outgrows the room its caller reserved
// panics there.
func at(b []byte, p unsafe.Pointer, n, size int) unsafe.Pointer { return unsafe.Add(p, n) }
