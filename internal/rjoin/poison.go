//go:build !fgmcheck

package rjoin

// poison does nothing: a released buffer keeps what it held until it is
// reused. The fgmcheck build (poison_checked.go) overwrites it instead, so
// a Result read after its Runtime's release reads poisonNode.
func poison[T any]([]T) {}
