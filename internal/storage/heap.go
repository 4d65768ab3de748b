package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// RID identifies a record in a HeapFile.
type RID struct {
	Page PageID
	Slot uint16
}

// chainSlot marks a RID whose page is the head of an overflow chain rather
// than a slotted page.
const chainSlot uint16 = 0xFFFF

// IsChain reports whether the record is stored as an overflow chain.
func (r RID) IsChain() bool { return r.Slot == chainSlot }

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// Encode packs the RID into 8 bytes (little endian page, slot, padding).
func (r RID) Encode() uint64 { return uint64(r.Page) | uint64(r.Slot)<<32 }

// DecodeRID unpacks an 8-byte encoded RID.
func DecodeRID(v uint64) RID { return RID{Page: PageID(v & 0xFFFFFFFF), Slot: uint16(v >> 32)} }

// Slotted heap page layout:
//
//	[0:2)  nSlots uint16
//	[2:4)  free-space pointer (cell area grows down from PageSize)
//	[4:..) slot directory: per slot, offset uint16 + length uint16
//
// Overflow chain page layout:
//
//	[0:4)  next PageID (InvalidPage at tail)
//	[4:8)  total record length uint32 (head page only; 0 elsewhere)
//	[8:10) fragment length uint16
//	[10:)  fragment bytes
const (
	heapHdr      = 4
	slotBytes    = 4
	chainHdr     = 10
	chainPayload = PageSize - chainHdr
	// maxInline is the largest record stored in a slotted page; larger
	// records use overflow chains.
	maxInline = PageSize / 4
)

// HeapFile stores variable-length records in pages of a buffer pool and
// returns stable RIDs. Records are never rewritten in place: a writer that
// changes one inserts a new record and marks the old one dead
// (Supersede), which frees its pages once nothing live is left on them.
// Read is safe for concurrent use; Insert and Supersede are single-writer.
type HeapFile struct {
	bp *BufferPool
	// cur is the current slotted page being filled, InvalidPage before the
	// first small-record insert.
	cur PageID
	// track records allocated page IDs so Release can return them to the
	// pool's free list (scratch heaps for per-query intermediate results).
	track bool
	owned []PageID
	// allocated logs the pages a non-scratch heap allocated since the last
	// TakeAllocated.
	allocated []PageID
	// dead counts, per slotted page, the records on it Supersede marked
	// dead since the heap was opened.
	dead map[PageID]int
}

// NewHeapFile creates an empty heap file on bp.
func NewHeapFile(bp *BufferPool) *HeapFile {
	return &HeapFile{bp: bp, cur: InvalidPage}
}

// NewScratchHeap creates a heap file that tracks its page allocations so
// Release can recycle them. Queries spill temporal tables through scratch
// heaps: the pages share the pool (and its I/O accounting) but are private
// to one query, and Release keeps long-running servers from growing the
// page file per query.
func NewScratchHeap(bp *BufferPool) *HeapFile {
	return &HeapFile{bp: bp, cur: InvalidPage, track: true}
}

// Release returns every page this heap allocated to the pool's free list.
// Only valid for heaps created with NewScratchHeap; a no-op otherwise.
// The heap is reusable (empty) afterwards.
func (h *HeapFile) Release() error {
	var first error
	for _, id := range h.owned {
		if err := h.bp.FreePage(id); err != nil && first == nil {
			first = err
		}
	}
	h.owned = h.owned[:0]
	h.cur = InvalidPage
	return first
}

// Seal detaches the heap from its current tail page, so the next Insert
// starts a fresh page instead of appending to (and rewriting the slotted
// header of) one an earlier batch filled. A snapshot-publishing writer
// calls this before publishing: pages visible to any snapshot are never
// written again, which is what makes lock-free readers safe.
func (h *HeapFile) Seal() { h.cur = InvalidPage }

// newPage allocates a page via the pool, recording it as owned when
// tracking and in the allocation log otherwise.
func (h *HeapFile) newPage() (*Frame, PageID, error) {
	f, id, err := h.bp.NewPage()
	switch {
	case err != nil:
	case h.track:
		h.owned = append(h.owned, id)
	default:
		h.allocated = append(h.allocated, id)
	}
	return f, id, err
}

// TakeAllocated returns the pages the heap allocated since the last call
// and empties the log: a snapshot-publishing writer learns from it which
// heap pages its batch made.
func (h *HeapFile) TakeAllocated() []PageID {
	ids := h.allocated
	h.allocated = nil
	return ids
}

// Insert appends rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > maxInline {
		return h.insertChain(rec)
	}
	// Try the current slotted page.
	if h.cur != InvalidPage {
		f, err := h.bp.Fetch(h.cur)
		if err != nil {
			return RID{}, err
		}
		if rid, ok := insertSlotted(f.Data(), h.cur, rec); ok {
			h.bp.Unpin(f, true)
			return rid, nil
		}
		h.bp.Unpin(f, false)
	}
	// Start a new slotted page.
	f, id, err := h.newPage()
	if err != nil {
		return RID{}, err
	}
	p := f.Data()
	binary.LittleEndian.PutUint16(p[2:4], PageSize)
	rid, ok := insertSlotted(p, id, rec)
	h.bp.Unpin(f, true)
	if !ok {
		return RID{}, fmt.Errorf("storage: record of %d bytes does not fit an empty page", len(rec))
	}
	h.cur = id
	return rid, nil
}

func insertSlotted(p []byte, id PageID, rec []byte) (RID, bool) {
	nSlots := binary.LittleEndian.Uint16(p[0:2])
	freePtr := binary.LittleEndian.Uint16(p[2:4])
	dirEnd := heapHdr + int(nSlots)*slotBytes
	if int(freePtr)-dirEnd < len(rec)+slotBytes {
		return RID{}, false
	}
	off := int(freePtr) - len(rec)
	copy(p[off:], rec)
	slotOff := dirEnd
	binary.LittleEndian.PutUint16(p[slotOff:], uint16(off))
	binary.LittleEndian.PutUint16(p[slotOff+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(p[0:2], nSlots+1)
	binary.LittleEndian.PutUint16(p[2:4], uint16(off))
	return RID{Page: id, Slot: nSlots}, true
}

func (h *HeapFile) insertChain(rec []byte) (RID, error) {
	var head PageID = InvalidPage
	var prev *Frame
	remaining := rec
	total := len(rec)
	for first := true; first || len(remaining) > 0; first = false {
		f, id, err := h.newPage()
		if err != nil {
			return RID{}, err
		}
		p := f.Data()
		binary.LittleEndian.PutUint32(p[0:4], uint32(InvalidPage))
		n := len(remaining)
		if n > chainPayload {
			n = chainPayload
		}
		if head == InvalidPage {
			head = id
			binary.LittleEndian.PutUint32(p[4:8], uint32(total))
		}
		binary.LittleEndian.PutUint16(p[8:10], uint16(n))
		copy(p[chainHdr:], remaining[:n])
		remaining = remaining[n:]
		if prev != nil {
			binary.LittleEndian.PutUint32(prev.Data()[0:4], uint32(id))
			h.bp.Unpin(prev, true)
		}
		prev = f
	}
	if prev != nil {
		h.bp.Unpin(prev, true)
	}
	return RID{Page: head, Slot: chainSlot}, nil
}

// Supersede marks the record at rid dead and returns the pages that hold
// nothing live any more: an overflow chain's pages, which the record owns,
// or its slotted page once every record on that page is dead (the heap
// then stops filling it). The caller frees them once no reader can reach
// the record (the graph database hands them to its epoch manager through
// Cow.Supersede). Each record must be superseded once, and only a record
// nothing reads any more: a page freed twice would be handed out twice.
// Records dead before the heap was opened are not counted, so their pages
// merely stay allocated.
func (h *HeapFile) Supersede(rid RID) ([]PageID, error) {
	var ids []PageID
	if rid.IsChain() {
		for id := rid.Page; id != InvalidPage; {
			f, err := h.bp.Fetch(id)
			if err != nil {
				return ids, err
			}
			next := PageID(binary.LittleEndian.Uint32(f.Data()[0:4]))
			h.bp.Unpin(f, false)
			ids = append(ids, id)
			id = next
		}
		return ids, nil
	}
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	nSlots := int(binary.LittleEndian.Uint16(f.Data()[0:2]))
	h.bp.Unpin(f, false)
	if h.dead == nil {
		h.dead = make(map[PageID]int)
	}
	if h.dead[rid.Page]++; h.dead[rid.Page] < nSlots {
		return nil, nil
	}
	delete(h.dead, rid.Page)
	if h.cur == rid.Page {
		h.cur = InvalidPage
	}
	return []PageID{rid.Page}, nil
}

// Read returns a copy of the record at rid.
func (h *HeapFile) Read(rid RID) ([]byte, error) { return h.ReadTo(nil, rid) }

// ReadTo is Read into dst's storage (reset to length zero), reusing its
// capacity.
func (h *HeapFile) ReadTo(dst []byte, rid RID) ([]byte, error) {
	if rid.IsChain() {
		return h.readChain(dst, rid.Page)
	}
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.bp.Unpin(f, false)
	p := f.Data()
	nSlots := binary.LittleEndian.Uint16(p[0:2])
	if rid.Slot >= nSlots {
		return nil, fmt.Errorf("storage: %v: slot out of range (%d slots)", rid, nSlots)
	}
	slotOff := heapHdr + int(rid.Slot)*slotBytes
	off := int(binary.LittleEndian.Uint16(p[slotOff:]))
	length := int(binary.LittleEndian.Uint16(p[slotOff+2:]))
	return append(slices.Grow(dst[:0], length), p[off:off+length]...), nil
}

func (h *HeapFile) readChain(dst []byte, head PageID) ([]byte, error) {
	f, err := h.bp.Fetch(head)
	if err != nil {
		return nil, err
	}
	total := binary.LittleEndian.Uint32(f.Data()[4:8])
	out := slices.Grow(dst[:0], int(total))
	id := head
	for id != InvalidPage {
		if f == nil {
			if f, err = h.bp.Fetch(id); err != nil {
				return nil, err
			}
		}
		p := f.Data()
		next := PageID(binary.LittleEndian.Uint32(p[0:4]))
		n := binary.LittleEndian.Uint16(p[8:10])
		out = append(out, p[chainHdr:chainHdr+int(n)]...)
		h.bp.Unpin(f, false)
		f = nil
		id = next
	}
	if len(out) != int(total) {
		return nil, fmt.Errorf("storage: chain at page %d: got %d bytes, header says %d", head, len(out), total)
	}
	return out, nil
}
