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
			ver := lv.ver.Add(1)
			t.rqStamp(leaf)
			if t.elim {
				lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: core.RecReplace})
			}
			valOff := leafValOff(leaf, dup)
			t.arena.Store(valOff, val)
			t.arena.Flush(valOff)
			lv.ver.Add(1)
			th.UnlockAll()
			return
		case emptyIdx >= 0:
			ver := lv.ver.Add(1)
			t.rqStamp(leaf)
			if t.elim {
				lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: core.RecInsert})
			}
			t.persistPair(leaf, emptyIdx, key, val)
			lv.size.Add(1)
			lv.ver.Add(1)
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
		var rec *elimRecord
		for {
			v1 := lv.ver.Load()
			rec = lv.rec.Load()
			v2 := lv.ver.Load()
			if v1&1 == 0 && v1 == v2 {
				break
			}
			t.crashCheck()
			abalg.SpinPause(&spins)
		}
		if rec != nil && startVer <= rec.ver && rec.key == key && core.CanEliminate(op, rec.kind) {
			return false, rec.val
		}
		if th.tryLockNode(leaf) {
			return true, 0
		}
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}
