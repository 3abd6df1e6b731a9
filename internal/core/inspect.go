package core

import "repro/internal/abalg"

// Quiescent inspection: the walks are internal/abalg's, run through a
// throwaway Thread. They take no locks and must only be called while no
// operation is running.

// Scan calls fn for every key-value pair, in ascending key order.
func (t *Tree) Scan(fn func(k, v uint64)) { abalg.Scan(t.NewThread(), fn) }

// Len returns the number of keys.
func (t *Tree) Len() int { return abalg.Len(t.NewThread()) }

// KeySum returns the wrapping sum of all keys (the paper's §6 validation).
func (t *Tree) KeySum() uint64 { return abalg.KeySum(t.NewThread()) }

// Height returns the number of levels below the entry node. An empty tree
// (a single leaf root) has height 1.
func (t *Tree) Height() int { return abalg.Height(t.NewThread()) }

// Stats summarises the tree's shape for experiment logs.
type Stats = abalg.Stats

// Stats collects shape statistics.
func (t *Tree) Stats() Stats { return abalg.Shape(t.NewThread()) }

// Validate checks the structural invariants of paper Theorem 3.5 (see
// abalg.Validate) and returns the first violation found.
func (t *Tree) Validate() error { return abalg.Validate(t.NewThread()) }
