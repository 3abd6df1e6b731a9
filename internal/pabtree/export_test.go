package pabtree

// Hooks the conformance wrappers (conformance_test.go) hand to the
// shared bodies in internal/abalg/storetest.

import "repro/internal/abalg"

// OpenPublishingWindow is this store's storetest.Window: it performs the
// first half of a publishing update of kind k by hand on behalf of pub —
// locks key's leaf and opens the version window (ver odd). The returned
// finish performs the second half with the store's flush discipline —
// persists the pair (insert), the value word (replace) or the ⊥ key
// with delKey (delete), stores the slot record, closes the window — and
// unlocks. A durable delete persists ⊥ in its slot's key word, so the
// delete record's key lives in vnode.delKey: the RecDelete rows of
// TestUpsertEliminationMatrix are the ones that read it.
func OpenPublishingWindow(pub *Thread, key, val uint64, k abalg.RecKind) (finish func()) {
	tr := pub.t
	leaf := abalg.Search[uint64](pub, key, 0).N
	abalg.Lock[uint64](pub, leaf)
	lv := tr.vn(leaf)
	at, empty := tr.findSlot(leaf, key)
	lv.ver.Add(1)
	tr.rqStamp(leaf)
	return func() {
		s := lv.size.Load()
		switch k {
		case abalg.RecInsert:
			at = empty
			tr.persistPair(leaf, at, key, val)
			s++
		case abalg.RecDelete:
			lv.delKey.Store(key)
			tr.arena.Store(leafKeyOff(leaf, at), emptyKey)
			tr.arena.Flush(leafKeyOff(leaf, at))
			s--
		case abalg.RecReplace:
			tr.arena.Store(leafValOff(leaf, at), val)
			tr.arena.Flush(leafValOff(leaf, at))
		}
		tr.closeWindow(lv, s, at, k)
		pub.UnlockAll()
	}
}
