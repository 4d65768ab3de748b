package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a page whose bytes do not form a valid node: a tree
// read through a stale or damaged root. Match with errors.Is.
var ErrCorrupt = errors.New("storage: corrupt page")

// BTree is a disk-resident B+-tree mapping variable-length byte keys to
// 8-byte values (typically an encoded RID). All page access goes through
// the buffer pool, so index probes contribute to the I/O cost metric.
//
// The tree supports insert (upsert), point lookup, ordered range scans,
// and lazy copy-on-write deletion (DeleteCow): cells are dropped without
// underflow rebalancing, so sustained delete workloads fragment the file
// until an offline re-pack rebuilds it.
//
// Page layout (both node kinds):
//
//	[0]     kind: 0 leaf, 1 internal
//	[1:3)   nKeys uint16
//	[3:7)   leaf: next-leaf PageID | internal: leftmost child PageID
//	[7:9)   cell-area start offset uint16 (cells grow down from PageSize)
//	[9:...) slot directory: nKeys × uint16 cell offsets, key-sorted
//
// Leaf cell:     keyLen uint16, key, value uint64.
// Internal cell: keyLen uint16, key, child PageID uint32 — the child holding
// keys ≥ this separator.
type BTree struct {
	bp   *BufferPool
	root PageID
}

const (
	btKindLeaf     = 0
	btKindInternal = 1
	btHdr          = 9
	// MaxKeyLen bounds key size so any two cells fit a fresh page.
	MaxKeyLen = 512
)

// NewBTree creates an empty tree on bp.
func NewBTree(bp *BufferPool) (*BTree, error) {
	f, id, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	initNode(f.Data(), btKindLeaf)
	bp.Unpin(f, true)
	return &BTree{bp: bp, root: id}, nil
}

// OpenBTree attaches to an existing tree by its root page.
func OpenBTree(bp *BufferPool, root PageID) *BTree { return &BTree{bp: bp, root: root} }

// Root returns the current root page ID (persist it to reopen the tree).
func (t *BTree) Root() PageID { return t.root }

func initNode(p []byte, kind byte) {
	p[0] = kind
	binary.LittleEndian.PutUint16(p[1:3], 0)
	binary.LittleEndian.PutUint32(p[3:7], uint32(InvalidPage))
	binary.LittleEndian.PutUint16(p[7:9], PageSize)
}

// node accessors operating on raw page bytes.

func nKeys(p []byte) int           { return int(binary.LittleEndian.Uint16(p[1:3])) }
func setNKeys(p []byte, n int)     { binary.LittleEndian.PutUint16(p[1:3], uint16(n)) }
func link(p []byte) PageID         { return PageID(binary.LittleEndian.Uint32(p[3:7])) }
func setLink(p []byte, v PageID)   { binary.LittleEndian.PutUint32(p[3:7], uint32(v)) }
func cellStart(p []byte) int       { return int(binary.LittleEndian.Uint16(p[7:9])) }
func setCellStart(p []byte, v int) { binary.LittleEndian.PutUint16(p[7:9], uint16(v)) }
func slotOff(p []byte, i int) int {
	return int(binary.LittleEndian.Uint16(p[btHdr+2*i:]))
}
func setSlot(p []byte, i, off int) {
	binary.LittleEndian.PutUint16(p[btHdr+2*i:], uint16(off))
}

// cellKey returns the key bytes of cell i (aliasing the page).
func cellKey(p []byte, i int) []byte {
	off := slotOff(p, i)
	klen := int(binary.LittleEndian.Uint16(p[off:]))
	return p[off+2 : off+2+klen]
}

// leafValue returns the value of leaf cell i.
func leafValue(p []byte, i int) uint64 {
	off := slotOff(p, i)
	klen := int(binary.LittleEndian.Uint16(p[off:]))
	return binary.LittleEndian.Uint64(p[off+2+klen:])
}

func setLeafValue(p []byte, i int, v uint64) {
	off := slotOff(p, i)
	klen := int(binary.LittleEndian.Uint16(p[off:]))
	binary.LittleEndian.PutUint64(p[off+2+klen:], v)
}

// childAt returns the child pointer of internal cell i.
func childAt(p []byte, i int) PageID {
	off := slotOff(p, i)
	klen := int(binary.LittleEndian.Uint16(p[off:]))
	return PageID(binary.LittleEndian.Uint32(p[off+2+klen:]))
}

// freeSpace returns the bytes available between the slot directory and the
// cell area.
func freeSpace(p []byte) int { return cellStart(p) - (btHdr + 2*nKeys(p)) }

// cellSize returns the bytes a new cell consumes including its slot entry.
func cellSize(klen int, kind byte) int {
	if kind == btKindLeaf {
		return 2 + klen + 8 + 2
	}
	return 2 + klen + 4 + 2
}

// search returns the index of the first cell with key ≥ k, and whether an
// exact match exists at that index.
func search(p []byte, k []byte) (int, bool) {
	lo, hi := 0, nKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cellKey(p, mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo < nKeys(p) && bytes.Equal(cellKey(p, lo), k)
	return lo, exact
}

// checkNode reports, as ErrCorrupt, a node page id that the readers below
// cannot walk without running off the page: an unknown kind, a slot
// directory past the cell area, or a cell whose key and 8- or 4-byte tail
// leave [cellStart, PageSize]. Get and Scan fetch every node through it;
// the pool runs it once per load of a page, not on every fetch.
func checkNode(p []byte, id PageID) error {
	tail := 4
	switch p[0] {
	case btKindLeaf:
		tail = 8
	case btKindInternal:
	default:
		return fmt.Errorf("%w: page %d: node kind %d", ErrCorrupt, id, p[0])
	}
	n, start := nKeys(p), cellStart(p)
	if btHdr+2*n > start || start > PageSize {
		return fmt.Errorf("%w: page %d: %d slots, cell area at %d", ErrCorrupt, id, n, start)
	}
	for i := 0; i < n; i++ {
		off := slotOff(p, i)
		if off < start || off+2 > PageSize || off+2+int(binary.LittleEndian.Uint16(p[off:]))+tail > PageSize {
			return fmt.Errorf("%w: page %d: slot %d at %d outside [%d, %d]", ErrCorrupt, id, i, off, start, PageSize)
		}
	}
	return nil
}

// insertCell places a cell at sorted position i; the caller guarantees room.
func insertCell(p []byte, i int, key []byte, tail []byte) {
	n := nKeys(p)
	sz := 2 + len(key) + len(tail)
	off := cellStart(p) - sz
	binary.LittleEndian.PutUint16(p[off:], uint16(len(key)))
	copy(p[off+2:], key)
	copy(p[off+2+len(key):], tail)
	// Shift slots right.
	copy(p[btHdr+2*(i+1):btHdr+2*(n+1)], p[btHdr+2*i:btHdr+2*n])
	setSlot(p, i, off)
	setNKeys(p, n+1)
	setCellStart(p, off)
}

// Get looks up key, returning its value.
func (t *BTree) Get(key []byte) (uint64, bool, error) {
	id, pages := t.root, t.bp.pager.NumPages()
	for depth := 0; ; depth++ {
		if depth >= pages {
			return 0, false, errLoop(id, pages)
		}
		f, err := t.bp.fetch(id, checkNode)
		if err != nil {
			return 0, false, err
		}
		p := f.Data()
		if p[0] == btKindLeaf {
			i, exact := search(p, key)
			var v uint64
			if exact {
				v = leafValue(p, i)
			}
			t.bp.Unpin(f, false)
			return v, exact, nil
		}
		id = descend(p, key)
		t.bp.Unpin(f, false)
	}
}

// errLoop reports, as ErrCorrupt, a descent that reached page id after
// passing as many nodes as the store has pages: a path from the root
// passes each page at most once, so a child pointer leads back up.
func errLoop(id PageID, pages int) error {
	return fmt.Errorf("%w: page %d: descent deeper than the store's %d pages", ErrCorrupt, id, pages)
}

// descend picks the child to follow for key in internal page p.
func descend(p []byte, key []byte) PageID {
	i, exact := search(p, key)
	if exact {
		return childAt(p, i)
	}
	if i == 0 {
		return link(p) // leftmost child
	}
	return childAt(p, i-1)
}

// splitResult carries a promoted separator after a child split.
type splitResult struct {
	key   []byte
	right PageID
}

// Insert upserts key → value.
func (t *BTree) Insert(key []byte, value uint64) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("storage: key of %d bytes exceeds max %d", len(key), MaxKeyLen)
	}
	sp, err := t.insertAt(t.root, key, value)
	if err != nil {
		return err
	}
	if sp == nil {
		return nil
	}
	// Root split: create a new internal root.
	f, id, err := t.bp.NewPage()
	if err != nil {
		return err
	}
	p := f.Data()
	initNode(p, btKindInternal)
	setLink(p, t.root)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], uint32(sp.right))
	insertCell(p, 0, sp.key, tail[:])
	t.bp.Unpin(f, true)
	t.root = id
	return nil
}

func (t *BTree) insertAt(id PageID, key []byte, value uint64) (*splitResult, error) {
	f, err := t.bp.Fetch(id)
	if err != nil {
		return nil, err
	}
	p := f.Data()

	if p[0] == btKindLeaf {
		i, exact := search(p, key)
		if exact {
			setLeafValue(p, i, value)
			t.bp.Unpin(f, true)
			return nil, nil
		}
		if freeSpace(p) >= cellSize(len(key), btKindLeaf) {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], value)
			insertCell(p, i, key, tail[:])
			t.bp.Unpin(f, true)
			return nil, nil
		}
		sp, err := t.splitLeaf(f, key, value, t.bp.NewPage)
		t.bp.Unpin(f, true)
		return sp, err
	}

	child := descend(p, key)
	// Keep the parent unpinned during the child insert to bound pin counts;
	// single-threaded access makes this safe.
	t.bp.Unpin(f, false)
	sp, err := t.insertAt(child, key, value)
	if err != nil || sp == nil {
		return nil, err
	}
	// Insert the promoted separator into this node.
	f, err = t.bp.Fetch(id)
	if err != nil {
		return nil, err
	}
	p = f.Data()
	i, _ := search(p, sp.key)
	if freeSpace(p) >= cellSize(len(sp.key), btKindInternal) {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], uint32(sp.right))
		insertCell(p, i, sp.key, tail[:])
		t.bp.Unpin(f, true)
		return nil, nil
	}
	up, err := t.splitInternal(f, sp, t.bp.NewPage)
	t.bp.Unpin(f, true)
	return up, err
}

// splitLeaf splits the full leaf in f and inserts key/value on the proper
// side, allocating the right sibling through alloc (the pool for in-place
// inserts, the Cow batch for copy-on-write inserts). Returns the separator
// to promote.
func (t *BTree) splitLeaf(f *Frame, key []byte, value uint64, alloc func() (*Frame, PageID, error)) (*splitResult, error) {
	p := f.Data()
	n := nKeys(p)
	mid := n / 2

	rf, rid, err := alloc()
	if err != nil {
		return nil, err
	}
	rp := rf.Data()
	initNode(rp, btKindLeaf)

	// Move upper half to the right node.
	for i := mid; i < n; i++ {
		k := cellKey(p, i)
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], leafValue(p, i))
		insertCell(rp, i-mid, k, tail[:])
	}
	setLink(rp, link(p))
	setLink(p, rid)

	// Compact the left node to the lower half.
	compactKeep(p, mid, btKindLeaf)

	// Insert the pending key into the correct side.
	sep := append([]byte(nil), cellKey(rp, 0)...)
	target := p
	if bytes.Compare(key, sep) >= 0 {
		target = rp
	}
	i, exact := search(target, key)
	if exact {
		setLeafValue(target, i, value)
	} else {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], value)
		insertCell(target, i, key, tail[:])
	}
	t.bp.Unpin(rf, true)
	return &splitResult{key: sep, right: rid}, nil
}

// splitInternal splits the full internal node in f while inserting sp,
// allocating the right sibling through alloc. Returns the separator to
// promote further up.
func (t *BTree) splitInternal(f *Frame, sp *splitResult, alloc func() (*Frame, PageID, error)) (*splitResult, error) {
	p := f.Data()
	n := nKeys(p)

	// Materialise all cells plus the pending one, sorted.
	type icell struct {
		key   []byte
		child PageID
	}
	cells := make([]icell, 0, n+1)
	pos, _ := search(p, sp.key)
	for i := 0; i < n; i++ {
		if i == pos {
			cells = append(cells, icell{sp.key, sp.right})
		}
		cells = append(cells, icell{append([]byte(nil), cellKey(p, i)...), childAt(p, i)})
	}
	if pos == n {
		cells = append(cells, icell{sp.key, sp.right})
	}

	mid := len(cells) / 2
	sepCell := cells[mid]

	rf, rid, err := alloc()
	if err != nil {
		return nil, err
	}
	rp := rf.Data()
	initNode(rp, btKindInternal)
	setLink(rp, sepCell.child) // separator's child becomes right's leftmost
	for i, c := range cells[mid+1:] {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], uint32(c.child))
		insertCell(rp, i, c.key, tail[:])
	}
	t.bp.Unpin(rf, true)

	// Rebuild the left node with cells[:mid].
	left := link(p)
	initNode(p, btKindInternal)
	setLink(p, left)
	for i, c := range cells[:mid] {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], uint32(c.child))
		insertCell(p, i, c.key, tail[:])
	}
	return &splitResult{key: sepCell.key, right: rid}, nil
}

// compactKeep rewrites page p keeping only its first keep cells.
func compactKeep(p []byte, keep int, kind byte) {
	rewriteCells(p, kind, func(j int) bool { return j < keep })
}

// rewriteCells rewrites page p with the cells keep accepts, in order, from
// a copy of the page, reclaiming the slot and cell space of the others.
func rewriteCells(p []byte, kind byte, keep func(j int) bool) {
	tl := 4
	if kind == btKindLeaf {
		tl = 8
	}
	var buf [PageSize]byte
	old := buf[:]
	copy(old, p)
	next := link(p)
	initNode(p, kind)
	setLink(p, next)
	k := 0
	for j := 0; j < nKeys(old); j++ {
		if !keep(j) {
			continue
		}
		key := cellKey(old, j)
		end := slotOff(old, j) + 2 + len(key)
		insertCell(p, k, key, old[end:end+tl])
		k++
	}
}

// Scan calls fn for every key ≥ start in ascending order until fn returns
// false or the keys are exhausted. A nil start scans from the beginning.
//
// The scan is an in-order descent from the root rather than a walk of the
// leaf sibling chain: a copy-on-write insert (InsertCow) clones only the
// pages on its root-to-leaf path, so a cloned leaf's un-cloned left
// sibling still links to the superseded page — valid in the old tree
// version, wrong (and eventually reclaimed) in the new one. Child pointers
// reached from the version's own root are always consistent.
func (t *BTree) Scan(start []byte, fn func(key []byte, value uint64) bool) error {
	_, err := t.scanNode(t.root, start, fn, t.bp.pager.NumPages())
	return err
}

// scanNode emits keys ≥ start under page id; the bool is false once fn
// stopped the scan. room is how many more levels the descent may pass
// before it has passed every page of the store.
func (t *BTree) scanNode(id PageID, start []byte, fn func(key []byte, value uint64) bool, room int) (bool, error) {
	if room <= 0 {
		return false, errLoop(id, t.bp.pager.NumPages())
	}
	f, err := t.bp.fetch(id, checkNode)
	if err != nil {
		return false, err
	}
	p := f.Data()

	if p[0] == btKindLeaf {
		n := nKeys(p)
		i := 0
		if start != nil {
			i, _ = search(p, start)
		}
		for ; i < n; i++ {
			k := append([]byte(nil), cellKey(p, i)...)
			v := leafValue(p, i)
			if !fn(k, v) {
				t.bp.Unpin(f, false)
				return false, nil
			}
		}
		t.bp.Unpin(f, false)
		return true, nil
	}

	// Children in key order are [leftmost link, child 0, …, child n-1];
	// start's subtree (descend's choice) is where the scan begins.
	n := nKeys(p)
	children := make([]PageID, 0, n+1)
	from := 0
	if start != nil {
		i, exact := search(p, start)
		switch {
		case exact:
			from = i + 1
		case i > 0:
			from = i
		}
	}
	if from == 0 {
		children = append(children, link(p))
	}
	for i := max(from-1, 0); i < n; i++ {
		children = append(children, childAt(p, i))
	}
	// Unpin before recursing so a scan holds at most one pin per level.
	t.bp.Unpin(f, false)

	for j, cid := range children {
		s := start
		if j > 0 {
			s = nil // only the first child can hold keys < start
		}
		more, err := t.scanNode(cid, s, fn, room-1)
		if err != nil || !more {
			return more, err
		}
	}
	return true, nil
}

// Len counts the keys in the tree (full scan; for tests and stats).
func (t *BTree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, func([]byte, uint64) bool { n++; return true })
	return n, err
}
