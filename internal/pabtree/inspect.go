package pabtree

import (
	"fmt"

	"repro/internal/abalg"
)

// Quiescent inspection: the walks are internal/abalg's, run through a
// throwaway Thread (which never retires a slot, so it needs no epoch
// registration). They take no locks and must only be called while no
// operation is running.

func (t *Tree) inspector() *Thread { return &Thread{t: t} }

// Scan calls fn for every key-value pair in ascending key order.
func (t *Tree) Scan(fn func(k, v uint64)) { abalg.Scan(t.inspector(), fn) }

// Len returns the number of keys.
func (t *Tree) Len() int { return abalg.Len(t.inspector()) }

// KeySum returns the wrapping sum of all keys (the paper's §6 validation).
func (t *Tree) KeySum() uint64 { return abalg.KeySum(t.inspector()) }

// Height returns the number of levels below the entry node.
func (t *Tree) Height() int { return abalg.Height(t.inspector()) }

// Validate checks the Theorem 5.4 structural invariants (see
// abalg.Validate) on the volatile view of a quiescent tree (after
// Recover, volatile == persisted, so this validates the recovered image
// too).
func (t *Tree) Validate() error { return abalg.Validate(t.inspector()) }

// ValidatePersisted verifies that every reachable node's persisted image
// matches its volatile image for the durable fields (keys, values for
// leaves; routing keys and unmarked pointers for internals). On a
// quiescent tree every update has completed its flushes, so the views
// must agree; a mismatch means some code path forgot a flush.
func (t *Tree) ValidatePersisted() error {
	var walk func(off uint64) error
	walk = func(off uint64) error {
		meta := t.meta(off)
		if pm := t.arena.PersistedLoad(off + metaWord); pm != meta {
			return fmt.Errorf("node %d: meta volatile %#x vs persisted %#x", off, meta, pm)
		}
		if kindOf(meta) == abalg.LeafKind {
			for i := 0; i < t.b; i++ {
				kw := leafKeyOff(off, i)
				if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
					return fmt.Errorf("leaf %d key slot %d not persisted", off, i)
				}
				k := t.arena.Load(kw)
				vw := leafValOff(off, i)
				if k != emptyKey && t.arena.Load(vw) != t.arena.PersistedLoad(vw) {
					return fmt.Errorf("leaf %d val slot %d not persisted", off, i)
				}
			}
			return nil
		}
		for i := 0; i < nchildrenOf(meta)-1; i++ {
			kw := routingKeyOff(off, i)
			if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
				return fmt.Errorf("internal %d routing key %d not persisted", off, i)
			}
		}
		for i := 0; i < nchildrenOf(meta); i++ {
			pw := childOff(off, i)
			vol := t.arena.Load(pw)
			per := t.arena.PersistedLoad(pw)
			if vol&markBit != 0 {
				return fmt.Errorf("internal %d child %d marked at quiescence", off, i)
			}
			if per&^markBit != vol {
				return fmt.Errorf("internal %d child %d: volatile %d vs persisted %d", off, i, vol, per)
			}
			if err := walk(vol); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.entryOff)
}

// Stats summarises the tree's shape and arena usage for experiment logs.
type Stats struct {
	abalg.Stats
	SlotsUsed uint64 // bump-allocated node slots (never shrinks)
}

// Stats collects shape statistics (quiescent only).
func (t *Tree) Stats() Stats {
	return Stats{abalg.Shape(t.inspector()), t.arena.Allocated() / NodeWords}
}
