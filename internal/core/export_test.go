package core

// Hooks the conformance wrappers (conformance_test.go) hand to the
// shared bodies in internal/abalg/storetest.

import "repro/internal/abalg"

// MarkedBit is a leaf state word's marked flag.
const MarkedBit = markedBit

// OpenPublishingWindow is this store's storetest.Window: it performs the
// first half of a publishing update of kind k by hand on behalf of pub —
// locks key's leaf and opens the version window (ver odd). The returned
// finish performs the second half — writes the slot (insert, replace)
// or leaves it as the tombstone (delete), stores the slot record, closes
// the window — and unlocks.
func OpenPublishingWindow(pub *Thread, key, val uint64, k abalg.RecKind) (finish func()) {
	tr := pub.t
	n := abalg.Search[*node](pub, key, nil).N
	abalg.Lock[*node](pub, n)
	l := n.leaf()
	at, empty := tr.findSlot(l, key)
	s := tr.openWindow(l)
	return func() {
		switch k {
		case abalg.RecInsert:
			at = empty
			l.vals[at].Store(val)
			l.keys[at].Store(key)
			s++
		case abalg.RecDelete:
			s--
		case abalg.RecReplace:
			l.vals[at].Store(val)
		}
		tr.closeWindow(l, s, at, k)
		pub.UnlockAll()
	}
}
