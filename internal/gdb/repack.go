package gdb

import (
	"fmt"
	"os"
)

// Repack rewrites the file-backed database at src into a brand-new page
// file at dst with every index rebuilt through the bulk-load path
// (storage.BulkLoad): packed leaves, no half-full point-insert split
// pages, and graph records laid out contiguously at the front of the
// heap. Edge inserts keep a database correct but fragment its layout;
// repacking restores the dense image Build would produce from the current
// graph, typically shrinking the file and the I/O per range scan.
//
// Repack is offline: it opens src read-only (nothing in src is modified),
// computes the 2-hop cover from scratch — deterministic, so repacking the
// same source twice yields byte-identical page files and manifests — and
// replaces any existing file at dst. src and dst must differ; to repack in
// place, write to a temp path and rename over src afterwards.
func Repack(src, dst string, opt Options) error {
	if src == dst {
		return fmt.Errorf("gdb: repack in place is not supported (src == dst); write to a temp path and rename")
	}
	srcOpt := opt
	srcOpt.Path = ""
	srcDB, err := Open(src, srcOpt)
	if err != nil {
		return fmt.Errorf("gdb: repack open %s: %w", src, err)
	}
	g := srcDB.Graph() // immutable and fully in memory; outlives the close
	if err := srcDB.Close(); err != nil {
		return err
	}

	for _, p := range []string{dst, manifestPath(dst)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	opt.Path = dst
	db, err := Build(g, opt)
	if err != nil {
		return fmt.Errorf("gdb: repack build %s: %w", dst, err)
	}
	return db.Close()
}
