package storage

// DeleteCow removes key from the tree without modifying any page a
// published snapshot can see: the root-to-leaf path is copied exactly as
// in InsertCow, the leaf cell is dropped with a full page compaction (slot
// and cell-heap space are both reclaimed), and the returned tree points at
// the new root. The receiver stays readable; unchanged subtrees are shared
// between both versions. The bool reports whether the key was present —
// deleting an absent key copies nothing and returns the receiver.
//
// Deletion is lazy: no underflow rebalancing or sibling merging happens,
// so a leaf may end up empty. Empty leaves are harmless — Get descends
// into them and finds nothing, Scan emits nothing, and a later insert
// refills them — and an offline re-pack rebuilds the tree at full fill if
// the space matters.
func (t *BTree) DeleteCow(c *Cow, key []byte) (*BTree, bool, error) {
	if _, ok, err := t.Get(key); err != nil || !ok {
		return t, false, err
	}
	newRoot, err := t.cowDeleteAt(c, t.root, key)
	if err != nil {
		return nil, false, err
	}
	if newRoot == t.root {
		return t, true, nil
	}
	return &BTree{bp: t.bp, root: newRoot}, true, nil
}

// cowDeleteAt removes key below page id, copying the page first unless
// this batch owns it, and returns the page standing in for id in the new
// version (id itself when the page was already fresh).
func (t *BTree) cowDeleteAt(c *Cow, id PageID, key []byte) (PageID, error) {
	f, err := c.bp.Fetch(id)
	if err != nil {
		return InvalidPage, err
	}
	p := f.Data()

	if p[0] == btKindLeaf {
		i, exact := search(p, key)
		c.bp.Unpin(f, false)
		if !exact {
			return id, nil // DeleteCow verified presence; defensive
		}
		wf, nid, err := c.writable(id)
		if err != nil {
			return InvalidPage, err
		}
		removeCell(wf.Data(), i, btKindLeaf)
		c.bp.Unpin(wf, true)
		return nid, nil
	}

	child := descend(p, key)
	c.bp.Unpin(f, false)
	newChild, err := t.cowDeleteAt(c, child, key)
	if err != nil {
		return InvalidPage, err
	}
	if newChild == child {
		// The child was already fresh and compacted in place.
		return id, nil
	}
	wf, nid, err := c.writable(id)
	if err != nil {
		return InvalidPage, err
	}
	redirectChild(wf.Data(), key, newChild)
	c.bp.Unpin(wf, true)
	return nid, nil
}

// removeCell rewrites page p without cell i (compare compactKeep, which
// keeps a prefix); both the slot entry and the cell bytes are reclaimed.
func removeCell(p []byte, i int, kind byte) {
	rewriteCells(p, kind, func(j int) bool { return j != i })
}
