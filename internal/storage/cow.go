package storage

import (
	"encoding/binary"
	"fmt"
)

// Cow tracks one copy-on-write write batch against B+-trees sharing a
// buffer pool. Pages the batch allocates are "fresh": invisible to any
// published snapshot, so later inserts of the same batch mutate them in
// place instead of copying again. Pages the batch supersedes (copied from
// a published tree version, or heap pages left holding no live record,
// see Supersede) are recorded in Freed; the caller hands
// them to the epoch manager, which returns them to the pool's free list
// once no snapshot can reference them.
//
// A Cow is single-writer state: it must not be shared between goroutines.
type Cow struct {
	bp    *BufferPool
	fresh map[PageID]struct{}
	freed []PageID
}

// NewCow starts a copy-on-write batch on bp.
func NewCow(bp *BufferPool) *Cow {
	return &Cow{bp: bp, fresh: make(map[PageID]struct{})}
}

// Allocated returns the pages this batch allocated for its trees, in no
// particular order.
func (c *Cow) Allocated() []PageID {
	ids := make([]PageID, 0, len(c.fresh))
	for id := range c.fresh {
		ids = append(ids, id)
	}
	return ids
}

// Freed returns the pages this batch superseded, in supersession order.
// They are still referenced by the pre-batch tree versions; free them only
// once every snapshot holding those versions has retired.
func (c *Cow) Freed() []PageID { return c.freed }

// Supersede marks the record at rid in h dead — the caller has just
// replaced or deleted the tree entry that pointed at it — and records the
// pages that left holding nothing live as superseded (see
// HeapFile.Supersede).
func (c *Cow) Supersede(h *HeapFile, rid RID) error {
	ids, err := h.Supersede(rid)
	c.freed = append(c.freed, ids...)
	return err
}

// newPage allocates a page owned (and therefore mutable in place) by this
// batch.
func (c *Cow) newPage() (*Frame, PageID, error) {
	f, id, err := c.bp.NewPage()
	if err != nil {
		return nil, InvalidPage, err
	}
	c.fresh[id] = struct{}{}
	return f, id, nil
}

// writable returns a pinned frame the batch may mutate: page id itself
// when the batch allocated it, otherwise a fresh copy of it (recording id
// as superseded). The caller must Unpin the returned frame.
func (c *Cow) writable(id PageID) (*Frame, PageID, error) {
	if _, ok := c.fresh[id]; ok {
		f, err := c.bp.Fetch(id)
		return f, id, err
	}
	of, err := c.bp.Fetch(id)
	if err != nil {
		return nil, InvalidPage, err
	}
	nf, nid, err := c.newPage()
	if err != nil {
		c.bp.Unpin(of, false)
		return nil, InvalidPage, err
	}
	copy(nf.Data(), of.Data())
	c.bp.Unpin(of, false)
	c.freed = append(c.freed, id)
	return nf, nid, nil
}

// InsertCow upserts key → value without modifying any page a published
// snapshot can see: every page on the root-to-leaf path that the batch did
// not itself allocate is path-copied, and the returned tree points at the
// (possibly new) root. The receiver is left untouched, so both versions
// remain readable; unchanged subtrees are shared between them.
func (t *BTree) InsertCow(c *Cow, key []byte, value uint64) (*BTree, error) {
	if len(key) > MaxKeyLen {
		return nil, fmt.Errorf("storage: key of %d bytes exceeds max %d", len(key), MaxKeyLen)
	}
	newRoot, sp, err := t.cowInsertAt(c, t.root, key, value)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		// Root split: the new root is always a fresh page.
		f, id, err := c.newPage()
		if err != nil {
			return nil, err
		}
		p := f.Data()
		initNode(p, btKindInternal)
		setLink(p, newRoot)
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], uint32(sp.right))
		insertCell(p, 0, sp.key, tail[:])
		c.bp.Unpin(f, true)
		newRoot = id
	}
	if newRoot == t.root {
		return t, nil
	}
	return &BTree{bp: t.bp, root: newRoot}, nil
}

// cowInsertAt inserts below page id, copying the page first unless this
// batch owns it. It returns the page standing in for id in the new
// version (id itself when nothing changed or the page was already fresh)
// plus any separator to promote.
func (t *BTree) cowInsertAt(c *Cow, id PageID, key []byte, value uint64) (PageID, *splitResult, error) {
	f, err := c.bp.Fetch(id)
	if err != nil {
		return InvalidPage, nil, err
	}
	p := f.Data()

	if p[0] == btKindLeaf {
		// An upsert always mutates the leaf, so copy unconditionally.
		c.bp.Unpin(f, false)
		wf, nid, err := c.writable(id)
		if err != nil {
			return InvalidPage, nil, err
		}
		wp := wf.Data()
		i, exact := search(wp, key)
		if exact {
			setLeafValue(wp, i, value)
			c.bp.Unpin(wf, true)
			return nid, nil, nil
		}
		if freeSpace(wp) >= cellSize(len(key), btKindLeaf) {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], value)
			insertCell(wp, i, key, tail[:])
			c.bp.Unpin(wf, true)
			return nid, nil, nil
		}
		sp, err := t.splitLeaf(wf, key, value, c.newPage)
		c.bp.Unpin(wf, true)
		return nid, sp, err
	}

	child := descend(p, key)
	c.bp.Unpin(f, false)
	newChild, sp, err := t.cowInsertAt(c, child, key, value)
	if err != nil {
		return InvalidPage, nil, err
	}
	if newChild == child && sp == nil {
		// The child was already fresh and absorbed the insert in place:
		// this node's pointer is still right, nothing to touch.
		return id, nil, nil
	}
	wf, nid, err := c.writable(id)
	if err != nil {
		return InvalidPage, nil, err
	}
	wp := wf.Data()
	if newChild != child {
		redirectChild(wp, key, newChild)
	}
	if sp == nil {
		c.bp.Unpin(wf, true)
		return nid, nil, nil
	}
	i, _ := search(wp, sp.key)
	if freeSpace(wp) >= cellSize(len(sp.key), btKindInternal) {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], uint32(sp.right))
		insertCell(wp, i, sp.key, tail[:])
		c.bp.Unpin(wf, true)
		return nid, nil, nil
	}
	up, err := t.splitInternal(wf, sp, c.newPage)
	c.bp.Unpin(wf, true)
	return nid, up, err
}

// redirectChild repoints the child pointer that descend(p, key) follows.
func redirectChild(p []byte, key []byte, nid PageID) {
	i, exact := search(p, key)
	switch {
	case exact:
		setChildAt(p, i, nid)
	case i == 0:
		setLink(p, nid)
	default:
		setChildAt(p, i-1, nid)
	}
}

// setChildAt overwrites the child pointer of internal cell i.
func setChildAt(p []byte, i int, v PageID) {
	off := slotOff(p, i)
	klen := int(binary.LittleEndian.Uint16(p[off:]))
	binary.LittleEndian.PutUint32(p[off+2+klen:], uint32(v))
}
