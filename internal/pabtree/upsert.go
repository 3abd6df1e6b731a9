package pabtree

// Upsert for the persistent trees — the §7 replace-style insert. The
// elimination compatibility matrix is the same as the volatile tree's
// (see internal/core/upsert.go); persistence adds that a value replace
// commits with a single flush of the value word, which is atomic against
// any crash (one word, one line).

import (
	"repro/internal/abalg"
	"repro/internal/core"
)

// Upsert sets key's value to val, inserting if absent. Durable on return
// (replace: one value flush; insert: one flush of the pair's line; split:
// link-and-persist).
func (th *Thread) Upsert(key, val uint64) {
	abalg.CheckKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.N
		lv := t.vn(leaf)

		if t.elim {
			acquired, _ := th.lockOrElimKind(leaf, key, core.OpUpsert)
			if !acquired {
				t.elimUpserts.Add(1)
				return
			}
		} else {
			th.Lock(leaf)
		}

		if lv.marked.Load() {
			th.UnlockAll()
			continue
		}

		dup, emptyIdx := t.findSlot(leaf, key)
		switch {
		case dup >= 0:
			// Replace: the value word is the commit point. If a crash
			// intervenes, the replace linearizes at the crash iff the new
			// value reached PM — single-word atomicity.
			lv.ver.Add(1)
			t.rqStamp(leaf)
			valOff := leafValOff(leaf, dup)
			t.arena.Store(valOff, val)
			t.arena.Flush(valOff)
			t.closeWindow(lv, lv.size.Load(), dup, core.RecReplace)
			th.UnlockAll()
			return
		case emptyIdx >= 0:
			lv.ver.Add(1)
			t.rqStamp(leaf)
			t.persistPair(leaf, emptyIdx, key, val)
			t.closeWindow(lv, lv.size.Load()+1, emptyIdx, core.RecInsert)
			th.UnlockAll()
			return
		default:
			parent := path.P
			th.Lock(parent)
			if t.vn(parent).marked.Load() {
				th.UnlockAll()
				continue
			}
			taggedOff := abalg.SplitInsert(th, leaf, parent, path.NIdx, key, val)
			th.UnlockAll()
			if taggedOff != 0 {
				abalg.FixTagged(th, taggedOff)
			}
			return
		}
	}
}

// lockOrElimKind is lockOrElim with the op/record compatibility matrix.
func (th *Thread) lockOrElimKind(leaf uint64, key uint64, op core.OpKind) (acquired bool, val uint64) {
	t := th.t
	lv := t.vn(leaf)
	startVer := lv.ver.Load()
	spins := 0
	for {
		rec := t.record(leaf, &spins)
		if startVer <= rec.Ver && rec.Key == key && core.CanEliminate(op, rec.Kind) {
			return false, rec.Val
		}
		if th.tryLockNode(leaf) {
			return true, 0
		}
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}

// record waits for the leaf to be quiescent and returns the ElimRecord
// its slot record decodes to (vnode) as of that moment. As in
// internal/core, Ver is the even version minus one: every version window
// on an unmarked leaf publishes, and every other window marks the leaf,
// so a marked leaf serves none (Ver == 0).
func (t *Tree) record(leaf uint64, spins *int) core.ElimRecord {
	lv := t.vn(leaf)
	for {
		v1 := lv.ver.Load()
		if v1&1 == 0 {
			var r core.ElimRecord
			if i, k := core.UnpackRec(lv.size.Load()); i >= 0 && !lv.marked.Load() {
				r = core.ElimRecord{Key: t.leafKey(leaf, i), Val: t.leafVal(leaf, i), Kind: k, Ver: v1 - 1}
				if k == core.RecDelete {
					r.Key = lv.delKey.Load()
				}
			}
			if lv.ver.Load() == v1 {
				return r
			}
		}
		t.crashCheck()
		abalg.SpinPause(spins)
	}
}
