package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/bits"

	"htmtree"
	"htmtree/internal/dict"
)

// rng is splitmix64. The benchmark draws every key and range from its own
// generator so that its inputs depend only on the seed and on this file,
// never on the program under test.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream name, index).
func newRNG(seed uint64, stream string, idx int) rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(idx+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opSearch
	opRange // RangeQuery over [key, hi)
	opAgg   // RangeAgg over [key, hi)
)

type op struct {
	kind    opKind
	key, hi uint64
}

// role is what one closed-loop client sends.
type role uint8

const (
	roleUpdate role = iota // 50% Insert / 50% Delete, synchronous
	roleRange              // RangeQuery of length ⌊x²·S⌋+1
	roleBatch              // 50% Search / 25% Insert / 25% Delete via Handle.Batch
	roleAgg                // RangeAgg of length ⌊x²·S⌋+1
)

func (r role) query() bool { return r == roleRange || r == roleAgg }

// next draws one operation over keys [1, S]. Range lengths follow the
// paper's heavy workload (§7.1): ⌊x²·S⌋+1 with x uniform in [0, 1).
func (r role) next(g *rng, s uint64) op {
	switch r {
	case roleUpdate:
		k := opInsert
		if g.next()&1 == 1 {
			k = opDelete
		}
		return op{kind: k, key: 1 + g.below(s)}
	case roleBatch:
		k := [4]opKind{opSearch, opSearch, opInsert, opDelete}[g.below(4)]
		return op{kind: k, key: 1 + g.below(s)}
	default:
		lo := 1 + g.below(s)
		x := float64(g.next()>>11) / (1 << 53)
		k := opRange
		if r == roleAgg {
			k = opAgg
		}
		return op{kind: k, key: lo, hi: lo + uint64(x*x*float64(s)) + 1}
	}
}

// workload fixes a tree configuration, a key range and two client roles.
type workload struct {
	name   string
	abtree bool
	shards int // 0: unsharded
	keys   uint64
	roles  [2]role
	// depth is the expected root-to-leaf node count at the prefilled
	// size (2·ln n for a random BST, ⌈log₁₁ n⌉ for the (6,16)-tree with
	// n keys per shard): the read count of the ladder's htm rungs.
	depth   int
	atomic  bool // AtomicRangeQueries
	observe bool // Observability at default sampling
}

var workloads = []workload{
	{name: "bst-light", keys: 10_000, roles: [2]role{roleUpdate, roleUpdate}, depth: 17},
	{name: "abtree-heavy", abtree: true, keys: 100_000, roles: [2]role{roleUpdate, roleRange}, depth: 5},
	{name: "sharded-analytics", abtree: true, shards: 8, keys: 1_000_000,
		roles: [2]role{roleBatch, roleAgg}, depth: 5, atomic: true, observe: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pointRole is the role the ladder's point rungs replay.
func (w workload) pointRole() role { return w.roles[0] }

// queryRole is the role the ladder's query rung replays; a workload
// without a query client uses the paper's RangeQuery lengths.
func (w workload) queryRole() role {
	if w.roles[1].query() {
		return w.roles[1]
	}
	return roleRange
}

func (w workload) newTree(observe bool) (*htmtree.Tree, error) {
	var cfg htmtree.Config
	if observe {
		cfg.Observability = &htmtree.ObsConfig{}
	}
	if w.shards == 0 {
		if w.abtree {
			return htmtree.NewABTree(cfg)
		}
		return htmtree.NewBST(cfg)
	}
	cfg.Shards = w.shards
	cfg.ShardKeySpan = w.keys + 1
	cfg.AtomicRangeQueries = w.atomic
	if w.abtree {
		return htmtree.NewShardedABTree(cfg)
	}
	return htmtree.NewShardedBST(cfg)
}

// prefill inserts uniform keys until half the key range is present and
// returns the sum and count of the keys it added.
func prefill(h pointHandle, w workload, seed uint64) (sum, count uint64) {
	g := newRNG(seed, w.name+"/prefill", 0)
	for count < w.keys/2 {
		k := 1 + g.below(w.keys)
		if _, existed := h.Insert(k, valueOf(k)); !existed {
			sum += k
			count++
		}
	}
	return sum, count
}

// digestOps is how many operations of each stream the digest covers.
const digestOps = 1 << 16

// streamDigest hashes the first digestOps operations of every stream the
// workload draws from: prefill, both clients and the ladder.
func streamDigest(w workload, seed uint64) string {
	h := sha256.New()
	var buf [17]byte
	put := func(o op) {
		buf[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(buf[1:], o.key)
		binary.LittleEndian.PutUint64(buf[9:], o.hi)
		h.Write(buf[:])
	}
	g := newRNG(seed, w.name+"/prefill", 0)
	for i := 0; i < digestOps; i++ {
		put(op{kind: opInsert, key: 1 + g.below(w.keys)})
	}
	for c, r := range w.roles {
		g := newRNG(seed, w.name, c)
		for i := 0; i < digestOps; i++ {
			put(r.next(&g, w.keys))
		}
	}
	for _, r := range []role{w.pointRole(), w.queryRole()} {
		g := newRNG(seed, w.name+"/ladder", int(r))
		for i := 0; i < digestOps; i++ {
			put(r.next(&g, w.keys))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// valueOf is the only value ever stored under key, so any returned value
// can be checked without knowing the history.
func valueOf(key uint64) uint64 { return key*0x9e3779b97f4a7c15 | 1 }

func pointOK(key, val uint64, found bool) bool { return !found || val == valueOf(key) }

// rangeOK checks a RangeQuery result: keys strictly ascending, inside
// [lo, hi), each with its value.
func rangeOK[T htmtree.KV | dict.KV](lo, hi uint64, kvs []T) bool {
	prev := uint64(0)
	for i, x := range kvs {
		kv := htmtree.KV(x)
		if kv.Key < lo || kv.Key >= hi || (i > 0 && kv.Key <= prev) || kv.Val != valueOf(kv.Key) {
			return false
		}
		prev = kv.Key
	}
	return true
}

// aggOK checks a RangeAgg result against what any key set inside
// [lo, hi) could produce.
func aggOK(lo, hi uint64, a htmtree.Agg, err error) bool {
	switch {
	case err != nil || a.Count > hi-lo:
		return false
	case a.Count == 0:
		return a.Sum == 0
	default:
		return lo <= a.Min && a.Min <= a.Max && a.Max < hi &&
			a.Min*a.Count <= a.Sum && a.Sum <= a.Max*a.Count
	}
}
