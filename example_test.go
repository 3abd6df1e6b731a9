package abtree_test

import (
	"fmt"

	abtree "repro"
)

// The basic dictionary operations on an Elim-ABtree.
func Example() {
	t := abtree.NewElim()
	h := t.NewHandle()

	h.Insert(3, 30)
	h.Insert(1, 10)
	h.Insert(2, 20)

	if v, ok := h.Find(2); ok {
		fmt.Println("find(2) =", v)
	}
	old, inserted := h.Insert(2, 99)
	fmt.Println("insert(2) again:", old, inserted)

	v, deleted := h.Delete(1)
	fmt.Println("delete(1):", v, deleted)

	t.Scan(func(k, v uint64) { fmt.Println("scan:", k, v) })
	// Output:
	// find(2) = 20
	// insert(2) again: 20 false
	// delete(1): 10 true
	// scan: 2 20
	// scan: 3 30
}

// Upsert is the §7 replace-style insert: it overwrites and returns
// nothing, which is exactly the signature that composes with publishing
// elimination.
func ExampleHandle_Upsert() {
	t := abtree.NewElim()
	h := t.NewHandle()

	h.Upsert(7, 1)
	h.Upsert(7, 2) // replaces
	v, _ := h.Find(7)
	fmt.Println(v)
	// Output: 2
}

// Range iterates keys in order within bounds, stopping early when the
// callback returns false.
func ExampleHandle_Range() {
	t := abtree.New()
	h := t.NewHandle()
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k*k)
	}
	h.Range(10, 13, func(k, v uint64) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 10 100
	// 11 121
	// 12 144
	// 13 169
}

// A persistent tree survives a simulated power failure: everything that
// was acknowledged (the call returned) is still there after recovery.
func ExamplePersistentTree_Recover() {
	t := abtree.NewPersistent(abtree.WithArenaWords(1 << 16))
	h := t.NewHandle()
	h.Insert(1, 100) // durable once Insert returns

	t.SimulateCrash(0, 42) // power loss: all unflushed cache lines gone
	r := t.Recover()

	v, ok := r.NewHandle().Find(1)
	fmt.Println(v, ok)
	// Output: 100 true
}
