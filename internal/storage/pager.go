// Package storage implements the paged storage engine under the graph
// database: a pager (memory- or file-backed), a buffer pool with LRU
// replacement and I/O accounting, a heap file for variable-length records,
// and a B+-tree index.
//
// The paper evaluates on a MiniBase-backed C++ implementation with a 1 MB
// buffer and reports elapsed time and I/O cost. This package supplies the
// equivalent substrate: every page access is routed through the buffer pool,
// whose counters (physical reads/writes, hits, misses) are the repository's
// I/O cost metric.
package storage

import (
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page within a Pager. Page 0 is valid; InvalidPage
// marks "no page".
type PageID uint32

// InvalidPage is the nil page ID.
const InvalidPage PageID = 0xFFFFFFFF

// Pager is the raw page I/O layer under the buffer pool.
type Pager interface {
	// ReadPage copies page id into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage writes buf (len PageSize) to page id.
	WritePage(id PageID, buf []byte) error
	// Allocate appends a zeroed page and returns its ID.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases resources.
	Close() error
}

// errPageRange reports an out-of-range page access: a page ID read from
// damaged or stale bytes, so it is ErrCorrupt.
var errPageRange = fmt.Errorf("%w: page id out of range", ErrCorrupt)

// MemPager is an in-memory Pager, used for tests and for in-memory graph
// databases. The zero value is ready to use. Methods are safe for
// concurrent use; distinct pages may be read and written in parallel (the
// buffer pool guarantees a single writer per page).
type MemPager struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// ReadPage implements Pager.
func (p *MemPager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: read %d of %d", errPageRange, id, len(p.pages))
	}
	copy(buf, p.pages[id])
	return nil
}

// WritePage implements Pager.
func (p *MemPager) WritePage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: write %d of %d", errPageRange, id, len(p.pages))
	}
	copy(p.pages[id], buf)
	return nil
}

// Allocate implements Pager.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages = append(p.pages, make([]byte, PageSize))
	return PageID(len(p.pages) - 1), nil
}

// NumPages implements Pager.
func (p *MemPager) NumPages() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pages)
}

// Close implements Pager.
func (p *MemPager) Close() error { return nil }

// FilePager is a file-backed Pager. Methods are safe for concurrent use:
// page I/O uses positional reads/writes and the page count is guarded by a
// mutex.
type FilePager struct {
	f  *os.File
	mu sync.RWMutex
	n  int
}

// OpenFilePager creates or opens path as a page file. An existing file's
// length must be a multiple of PageSize.
func OpenFilePager(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open pager: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat pager: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d not a multiple of page size", path, st.Size())
	}
	return &FilePager{f: f, n: int(st.Size() / PageSize)}, nil
}

// ReadPage implements Pager.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	n := p.n
	p.mu.RUnlock()
	if int(id) >= n {
		return fmt.Errorf("%w: read %d of %d", errPageRange, id, n)
	}
	_, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	p.mu.RLock()
	n := p.n
	p.mu.RUnlock()
	if int(id) >= n {
		return fmt.Errorf("%w: write %d of %d", errPageRange, id, n)
	}
	_, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID(p.n)
	var zero [PageSize]byte
	if _, err := p.f.WriteAt(zero[:], int64(p.n)*PageSize); err != nil {
		return InvalidPage, err
	}
	p.n++
	return id, nil
}

// NumPages implements Pager.
func (p *FilePager) NumPages() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.n
}

// Close implements Pager.
func (p *FilePager) Close() error { return p.f.Close() }
