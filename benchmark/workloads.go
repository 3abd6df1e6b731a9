package main

// The seven workloads: what each one builds, how a client executes one
// tape entry against it, and how its result is checked. README.md
// records why each is here and which layers it does and does not load.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/treedict"
)

// opStats is what one client has done so far, warm-up included.
type opStats struct {
	ok, failed uint64 // operations answered correctly / with an error or a wrong result
	writes     uint64 // inserts and deletes issued
	updates    uint64 // of those, the ones that changed the structure
	scans      uint64
	pairs      uint64 // pairs reported by scans
	keySum     uint64 // wrapping: +key per landed insert, -key per landed delete
}

// worker executes tape entries for one client. do runs the operation
// at tape[pos] and returns how many entries it consumed.
type worker interface {
	do(tape []uint64, pos int, st *opStats) int
}

// Worker sets an instance can hand out. Untraced workers carry the
// end-to-end numbers; the other two exist only in a traced run.
const (
	kindUntraced = iota
	kindTraced   // same path with client.Config.TraceEvery on
	kindDirect   // a plain traced client to the primary, bypassing internal/cluster
	numKinds
)

// traceEvery is the client's head-sampling period in a traced run.
const traceEvery = 8

// instance is one set-up system under test.
type instance struct {
	workers [numKinds][]worker
	// keySum reads the system's quiescent key sum the way a user
	// would: in-process from the structure, over the wire for servers.
	keySum func() (uint64, error)
	// finish runs the workload's own end-of-run check (crash and
	// recover, follower agreement); nil when key sum is all there is.
	finish func(expectSum uint64) error
	close  func()

	// What a traced run reads layer counters from; nil where absent.
	tree     dict.Dict        // in-process structure (ElimStats / RQStats)
	primary  *server.Server   // standalone server or partition primary
	follower *server.Server   // partition follower
	traced   *client.Client   // the client whose spans and RTTs are readable
	clients  []*client.Client // every plain client, for FaultStats

	// heapAdjust is added to the measured heap growth: durable-update
	// swaps the arena's fixed backing arrays for the words in use.
	heapAdjust int64
}

// spec is one workload's definition.
type spec struct {
	name  string
	mix   mix
	every int // latency is sampled on every every-th call of a client
	setup func(in *inputs, clients int, traced bool) (*instance, error)
}

var specs = []spec{
	{"point-uniform", mix{keyRange: 1e6, find: 500, insert: 250, del: 250, dist: distUniform}, 16,
		inProcess(func() dict.Dict { return treedict.Core{T: core.New()} })},
	{"point-skew", mix{keyRange: 1e6, insert: 500, del: 500, dist: distZipf}, 16,
		inProcess(func() dict.Dict { return treedict.Core{T: core.New(core.WithElimination())} })},
	{"scan-mix", mix{keyRange: 1e6, insert: 25, del: 25, dist: distZipfMix, maxScan: 100}, 16,
		inProcess(newShard8)},
	{"batch-sharded", mix{keyRange: 1e6, find: 500, insert: 250, del: 250, dist: distUniform, block: batchLen}, 1,
		inProcess(newShard8)},
	{"durable-update", mix{keyRange: 1e6, insert: 500, del: 500, dist: distUniform}, 16, setupDurable},
	{"remote-point", mix{keyRange: 1e5, find: 500, insert: 250, del: 250, dist: distUniform}, 1, setupRemote},
	{"remote-repl-put", mix{keyRange: 1e5, insert: 500, del: 500, dist: distUniform}, 1, setupReplicated},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func newShard8() dict.Dict {
	return shard.New(8, 1e6, func(_ int, c *rq.Clock) dict.Dict {
		return treedict.Core{T: core.New(core.WithRQClock(c))}
	})
}

// hostedName is the registry name the servers report for their tree.
const hostedName = "OCC-ABtree"

// prefill inserts keys (value = key) from every core; each must land.
func prefill(d dict.Dict, keys []uint64) error {
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := d.NewHandle()
			for _, k := range keys[len(keys)*g/n : len(keys)*(g+1)/n] {
				if _, ok := h.Insert(k, k); !ok {
					errs[g] = fmt.Errorf("prefill: key %d was already present", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- in-process workloads ---------------------------------------------

// dictWorker drives a dict.Handle per key, and its snapshot scans.
type dictWorker struct {
	h    dict.Handle
	snap dict.SnapshotRanger

	// State of the scan in flight, checked pair by pair in visit.
	lo, hi, last uint64
	pairs        uint64
	bad          bool
	visit        func(k, v uint64) bool
}

func newDictWorker(h dict.Handle) *dictWorker {
	w := &dictWorker{h: h}
	w.snap, _ = h.(dict.SnapshotRanger)
	w.visit = func(k, v uint64) bool {
		if k <= w.last || k < w.lo || k > w.hi || v != k {
			w.bad = true
		}
		w.last = k
		w.pairs++
		return true
	}
	return w
}

func (w *dictWorker) do(tape []uint64, pos int, st *opStats) int {
	e := tape[pos]
	k := entryKey(e)
	good := true
	switch entryOp(e) {
	case opFind:
		v, found := w.h.Find(k)
		good = !found || v == k
	case opInsert:
		st.writes++
		prev, landed := w.h.Insert(k, k)
		if landed {
			st.keySum += k
			st.updates++
		}
		good = landed || prev == k
	case opDelete:
		st.writes++
		prev, landed := w.h.Delete(k)
		if landed {
			st.keySum -= k
			st.updates++
		}
		good = !landed || prev == k
	case opScan:
		w.lo, w.hi, w.last, w.pairs, w.bad = k, k+entryLen(e)-1, 0, 0, w.snap == nil
		if w.snap != nil {
			w.snap.RangeSnapshot(w.lo, w.hi, w.visit)
		}
		st.scans++
		st.pairs += w.pairs
		good = !w.bad
	}
	st.count(good)
	return 1
}

// batchLen is the keys per call of the batched workload.
const batchLen = 64

// batchWorker drives a dict.Batcher with batchLen-key calls; one key is
// one operation. Values equal keys, so a result that landed at the
// wrong index shows as a value that is not its key.
type batchWorker struct {
	b                dict.Batcher
	keys, vals, prev []uint64
	flags            []bool
}

func newBatchWorker(h dict.Handle) *batchWorker {
	return &batchWorker{
		b:    treedict.BatcherFor(h),
		keys: make([]uint64, batchLen), vals: make([]uint64, batchLen),
		prev: make([]uint64, batchLen), flags: make([]bool, batchLen),
	}
}

func (w *batchWorker) do(tape []uint64, pos int, st *opStats) int {
	for i := range w.keys {
		w.keys[i] = entryKey(tape[pos+i])
	}
	switch entryOp(tape[pos]) {
	case opFind:
		w.b.FindBatch(w.keys, w.prev, w.flags)
		for i, k := range w.keys {
			st.count(!w.flags[i] || w.prev[i] == k)
		}
	case opInsert:
		st.writes += batchLen
		copy(w.vals, w.keys)
		w.b.InsertBatch(w.keys, w.vals, w.prev, w.flags)
		for i, k := range w.keys {
			if w.flags[i] {
				st.keySum += k
				st.updates++
			}
			st.count(w.flags[i] || w.prev[i] == k)
		}
	case opDelete:
		st.writes += batchLen
		w.b.DeleteBatch(w.keys, w.prev, w.flags)
		for i, k := range w.keys {
			if w.flags[i] {
				st.keySum -= k
				st.updates++
			}
			st.count(!w.flags[i] || w.prev[i] == k)
		}
	}
	return batchLen
}

func (st *opStats) count(good bool) {
	if good {
		st.ok++
	} else {
		st.failed++
	}
}

// inProcess sets up a workload whose clients call the structure
// directly. Tracing adds nothing inside the program here, so the
// traced workers are the untraced ones (the harness spans differ).
func inProcess(build func() dict.Dict) func(*inputs, int, bool) (*instance, error) {
	return func(in *inputs, clients int, _ bool) (*instance, error) {
		return inProcessInstance(build(), in, clients)
	}
}

func inProcessInstance(d dict.Dict, in *inputs, clients int) (*instance, error) {
	if err := prefill(d, in.prefill); err != nil {
		return nil, err
	}
	inst := &instance{tree: d, close: func() {}}
	inst.keySum = func() (uint64, error) { return d.KeySum(), nil }
	for c := 0; c < clients; c++ {
		var w worker = newDictWorker(d.NewHandle())
		if in.block > 1 {
			w = newBatchWorker(d.NewHandle())
		}
		inst.workers[kindUntraced] = append(inst.workers[kindUntraced], w)
	}
	inst.workers[kindTraced] = inst.workers[kindUntraced]
	return inst, nil
}

// arenaWords sizes the simulated persistent arena: 16 words per key of
// the range, three times what the prefilled tree allocates.
const arenaWords = 16 << 20

func setupDurable(in *inputs, clients int, _ bool) (*instance, error) {
	arena := pmem.New(arenaWords)
	inst, err := inProcessInstance(treedict.Pab{T: pabtree.New(arena)}, in, clients)
	if err != nil {
		return nil, err
	}
	// Two 8-byte words per arena word (volatile and persisted views)
	// and one 4-byte dirty flag per line.
	backing := int64(arena.Cap())*16 + int64(arena.Cap())/pmem.LineWords*4
	inst.heapAdjust = 8*int64(arena.Allocated()) - backing
	// Power loss with every unflushed line dropped: what was
	// acknowledged must be what recovery finds.
	inst.finish = func(expect uint64) error {
		arena.Crash(0, in.seed)
		if got := pabtree.Recover(arena).KeySum(); got != expect {
			return fmt.Errorf("recovered key sum %d, acknowledged %d", got, expect)
		}
		return nil
	}
	return inst, nil
}

// --- remote workloads -------------------------------------------------

// tryWorker drives a server through the client's error-returning
// handles, so a transport failure is counted and never panics.
type tryWorker struct{ h client.TryHandle }

func (w tryWorker) do(tape []uint64, pos int, st *opStats) int {
	e := tape[pos]
	k := entryKey(e)
	var err error
	good := true
	switch entryOp(e) {
	case opFind:
		var v uint64
		var found bool
		v, found, err = w.h.TryFind(k)
		good = !found || v == k
	case opInsert:
		st.writes++
		var prev uint64
		var landed bool
		prev, landed, err = w.h.TryInsert(k, k)
		if err == nil && landed {
			st.keySum += k
			st.updates++
		}
		good = landed || prev == k
	case opDelete:
		st.writes++
		var prev uint64
		var landed bool
		prev, landed, err = w.h.TryDelete(k)
		if err == nil && landed {
			st.keySum -= k
			st.updates++
		}
		good = !landed || prev == k
	}
	st.count(err == nil && good)
	return 1
}

// startServer hosts a prefilled OCC-ABtree on the host's loopback
// interface. The tree is filled before it is served, so the server's
// own histograms hold the workload's requests only.
func startServer(in *inputs, cfg server.Config) (*server.Server, string, error) {
	var fillErr error
	srv, err := server.New(func(string, uint64) dict.Dict {
		d := treedict.Core{T: core.New()}
		fillErr = prefill(d, in.prefill)
		return d
	}, hostedName, in.keyRange, cfg)
	if err == nil {
		err = fillErr
	}
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// dialWorkers dials one client and one connection per benchmark client.
func dialWorkers(addr string, cfg client.Config, clients int) (*client.Client, []worker, error) {
	c, err := client.DialConfig(addr, cfg)
	if err != nil {
		return nil, nil, err
	}
	var ws []worker
	for i := 0; i < clients; i++ {
		h, err := c.NewTryHandle()
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		ws = append(ws, tryWorker{h.(client.TryHandle)})
	}
	return c, ws, nil
}

// clientConfigs returns the client configuration of each worker kind a
// run needs: untraced always, traced in a traced run.
func clientConfigs(traced bool) []client.Config {
	if traced {
		return []client.Config{kindUntraced: {}, kindTraced: {TraceEvery: traceEvery}}
	}
	return []client.Config{kindUntraced: {}}
}

func wireKeySum(c *client.Client) (uint64, error) {
	st, err := c.Stats()
	return st.KeySum, err
}

func setupRemote(in *inputs, clients int, traced bool) (inst *instance, err error) {
	srv, addr, err := startServer(in, server.Config{})
	if err != nil {
		return nil, err
	}
	inst = &instance{primary: srv}
	inst.close = func() {
		for _, c := range inst.clients {
			c.Close()
		}
		srv.Close()
	}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()
	for kind, cfg := range clientConfigs(traced) {
		c, ws, err := dialWorkers(addr, cfg, clients)
		if err != nil {
			return nil, err
		}
		inst.clients = append(inst.clients, c)
		inst.workers[kind] = ws
		inst.traced = c
	}
	plain := inst.clients[0]
	inst.keySum = func() (uint64, error) { return wireKeySum(plain) }
	return inst, nil
}

// setupReplicated starts one partition — a primary shipping its log to
// one follower, acknowledging after the follower applied (sync-1) —
// and drives it through the cluster router.
func setupReplicated(in *inputs, clients int, traced bool) (inst *instance, err error) {
	fol, faddr, err := startServer(in, server.Config{Follower: true})
	if err != nil {
		return nil, err
	}
	inst = &instance{follower: fol}
	var routers []*cluster.Dict
	inst.close = func() {
		for _, r := range routers {
			r.Close()
		}
		for _, c := range inst.clients {
			c.Close()
		}
		if inst.primary != nil {
			inst.primary.Close()
		}
		fol.Close()
	}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()
	prim, paddr, err := startServer(in, server.Config{Followers: []string{faddr}})
	if err != nil {
		return nil, err
	}
	inst.primary = prim
	// Attached means the primary's sender got its first ack (the
	// cursor probe); before that every write would wait for the dial.
	for t0 := time.Now(); prim.MetricsDump().Counters["repl_acks_total"] == 0; {
		if time.Since(t0) > 10*time.Second {
			return nil, errors.New("follower did not attach within 10 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	part := []cluster.Partition{{Primary: paddr, Followers: []string{faddr}}}
	for kind, cfg := range clientConfigs(traced) {
		r, err := cluster.New(cluster.Config{Partitions: part, KeyRange: in.keyRange, Client: cfg})
		if err != nil {
			return nil, err
		}
		routers = append(routers, r)
		for i := 0; i < clients; i++ {
			inst.workers[kind] = append(inst.workers[kind], tryWorker{r.NewHandle().(client.TryHandle)})
		}
	}
	if traced {
		c, ws, err := dialWorkers(paddr, client.Config{TraceEvery: traceEvery}, clients)
		if err != nil {
			return nil, err
		}
		inst.clients = append(inst.clients, c)
		inst.workers[kindDirect] = ws
		inst.traced = c
	}
	fc, err := client.Dial(faddr)
	if err != nil {
		return nil, err
	}
	inst.clients = append(inst.clients, fc)
	router := routers[0]
	inst.keySum = func() (sum uint64, err error) {
		defer func() { // the router's KeySum panics on a wire failure
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		return router.KeySum(), nil
	}
	// Every acknowledged write was applied by the follower first, so
	// once the clients stop the two replicas must agree.
	inst.finish = func(expect uint64) error {
		got, err := wireKeySum(fc)
		if err == nil && got != expect {
			err = fmt.Errorf("follower key sum %d, acknowledged %d", got, expect)
		}
		return err
	}
	return inst, nil
}
