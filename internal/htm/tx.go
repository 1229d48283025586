package htm

import (
	"fmt"
	"sync/atomic"

	"htmtree/internal/fault"
)

// PathKind identifies the execution path a transaction (or operation) ran
// on, for statistics. It mirrors the three-path vocabulary of the paper.
type PathKind uint8

// Execution paths.
const (
	PathFast PathKind = iota + 1
	PathMiddle
	PathFallback

	// NumPaths is the size of per-path counter arrays: index 0 is unused
	// so the path constants can start at one.
	NumPaths = 4
)

// String returns the paper's name for the path.
func (p PathKind) String() string {
	switch p {
	case PathFast:
		return "fast"
	case PathMiddle:
		return "middle"
	case PathFallback:
		return "fallback"
	default:
		return fmt.Sprintf("path(%d)", uint8(p))
	}
}

// AbortCause classifies why a transaction aborted, mirroring the RTM
// status word.
type AbortCause uint8

// Abort causes.
const (
	CauseNone     AbortCause = iota // committed
	CauseExplicit                   // Tx.Abort was invoked (xabort)
	CauseConflict                   // read/write conflict with another thread
	CauseCapacity                   // read or write set exceeded capacity
	CauseSpurious                   // injected best-effort failure

	// NumCauses is the size of per-cause counter arrays.
	NumCauses = 5
)

// String returns a short name for the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseExplicit:
		return "explicit"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Abort describes the outcome of an aborted transaction: the cause, plus
// the user code passed to Tx.Abort for explicit aborts (like the xabort
// immediate on Intel hardware).
type Abort struct {
	Cause AbortCause
	Code  uint8
}

// Stats counts transaction outcomes per execution path.
type Stats struct {
	Commits [NumPaths]uint64
	Aborts  [NumPaths][NumCauses]uint64
}

func (s *Stats) add(o *Stats) {
	for p := 0; p < NumPaths; p++ {
		s.Commits[p] += atomic.LoadUint64(&o.Commits[p])
		for c := 0; c < NumCauses; c++ {
			s.Aborts[p][c] += atomic.LoadUint64(&o.Aborts[p][c])
		}
	}
}

// Merge adds another snapshot into s. Unlike add it reads o without
// atomics, so o must be a snapshot (e.g. a TM.Stats result), not a live
// per-thread accumulator.
func (s *Stats) Merge(o Stats) {
	for p := 0; p < NumPaths; p++ {
		s.Commits[p] += o.Commits[p]
		for c := 0; c < NumCauses; c++ {
			s.Aborts[p][c] += o.Aborts[p][c]
		}
	}
}

// TotalAborts returns the number of aborts on path p across all causes.
func (s *Stats) TotalAborts(p PathKind) uint64 {
	var n uint64
	for c := 0; c < NumCauses; c++ {
		n += s.Aborts[p][c]
	}
	return n
}

// Thread is a per-goroutine transactional context. A Thread must not be
// shared between goroutines concurrently.
type Thread struct {
	tm    *TM
	id    int
	rng   uint64
	tx    Tx
	inTx  bool
	stats Stats
	// helper runs a TM-announced operation on this thread's behalf
	// (SetHelper); helping guards against reentrant helping.
	helper  func(Announced) bool
	helping bool
	// faults caches the TM's fault plan (Config.Faults) so the
	// per-access injection check is one field load and branch.
	faults *fault.Plan
}

// ID returns the thread's registration index within its TM.
func (th *Thread) ID() int { return th.id }

// TM returns the transactional memory this thread belongs to.
func (th *Thread) TM() *TM { return th.tm }

// Stats returns a snapshot of this thread's transaction statistics. The
// counters are read through the same atomic path the owning goroutine
// writes them with, so a reporting goroutine may call this concurrently
// with transaction activity.
func (th *Thread) Stats() Stats {
	var s Stats
	s.add(&th.stats)
	return s
}

// next returns the next value of the thread's splitmix64 PRNG.
func (th *Thread) next() uint64 {
	th.rng += 0x9e3779b97f4a7c15
	z := th.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Faults returns the thread's armed fault plan, if any (nil otherwise).
func (th *Thread) Faults() *fault.Plan { return th.faults }

// txAbort is the panic payload used to unwind an aborting transaction.
// It never escapes Thread.Atomic.
type txAbort struct {
	cause AbortCause
	code  uint8
}

type readEntry struct {
	ver  *atomic.Uint64
	seen uint64
}

type writeEntry struct {
	c cell
	// ver caches c.version(): the address of the cell's version word,
	// unique per cell, so write-set membership scans compare one pointer
	// instead of two interface words (runtime.ifaceeq showed up as the
	// single hottest function once aggregate maintenance grew the write
	// set to ~2 entries per tree level).
	ver     *atomic.Uint64
	word    uint64
	ptr     any
	isPtr   bool
	isAdd   bool // word is a commutative delta applied at commit (AddAtCommit)
	prevVer uint64
}

// Tx is a single transaction attempt. It is only valid inside the
// function passed to Thread.Atomic and must not be retained.
type Tx struct {
	th     *Thread
	rv     uint64
	reads  []readEntry
	writes []writeEntry
	path   PathKind

	// Latched at reset from the TM and thread so the per-access
	// admission checks read the Tx alone instead of chasing
	// tx.th.tm.cfg: sim selects the devirtualized simulator admission,
	// readCap/writeCap are its capacities, lockSpin bounds the wait on a
	// locked cell, and armed is set when spurious injection or a fault
	// plan can abort an access (maybeSpurious is skipped otherwise).
	sim, armed        bool
	readCap, writeCap int
	lockSpin          int
}

// Path returns the execution path label this transaction was started
// under.
func (tx *Tx) Path() PathKind { return tx.path }

// reset clears the transaction log for a new attempt. The snapshot (rv)
// is established afterwards by the backend's Begin.
func (tx *Tx) reset(path PathKind) {
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.path = path
	tm := tx.th.tm
	tx.sim = tm.sim
	tx.armed = tm.cfg.SpuriousEvery != 0 || tx.th.faults != nil
	tx.readCap, tx.writeCap = tm.cfg.ReadCapacity, tm.cfg.WriteCapacity
	tx.lockSpin = tm.cfg.LockSpin
}

// drop forgets the logged accesses of an abandoned attempt. The write
// set buffers ptr values and the per-thread Tx lives as long as the
// thread, so the entries must be zeroed — not just truncated — or the
// dead attempt would pin arbitrary nodes against reclamation.
func (tx *Tx) drop() {
	clear(tx.reads[:cap(tx.reads)])
	clear(tx.writes[:cap(tx.writes)])
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
}

// Abort explicitly aborts the transaction with a user code, like the
// xabort instruction. It does not return.
func (tx *Tx) Abort(code uint8) {
	panic(txAbort{cause: CauseExplicit, code: code})
}

// abort aborts the transaction for an internal reason. It does not
// return.
func (tx *Tx) abort(cause AbortCause) {
	panic(txAbort{cause: cause})
}

// maybeSpurious injects a spurious abort with the configured probability,
// and gives an armed fault plan its shot at forcing an abort by cause
// (fault.PointTxAccess — the chaos harness's abort storm).
func (tx *Tx) maybeSpurious() {
	every := tx.th.tm.cfg.SpuriousEvery
	if every != 0 && tx.th.next()%every == 0 {
		tx.abort(CauseSpurious)
	}
	if p := tx.th.faults; p != nil {
		if eff, ok := p.At(fault.PointTxAccess); ok {
			cause := CauseSpurious
			if eff.Cause != 0 {
				cause = AbortCause(eff.Cause)
			}
			tx.abort(cause)
		}
	}
}

// readVersion loads a cell version for a transactional read, spinning
// briefly on locked cells (a commit in flight) and aborting on conflict
// or snapshot violation.
func (tx *Tx) readVersion(ver *atomic.Uint64) uint64 {
	for i := 0; ; i++ {
		v := ver.Load()
		if v&lockBit == 0 {
			if v>>1 > tx.rv {
				// Written after this transaction began: the snapshot
				// cannot be extended, so this is a data conflict.
				tx.abort(CauseConflict)
			}
			return v
		}
		if i >= tx.lockSpin {
			tx.abort(CauseConflict)
		}
	}
}

// admitRead vets a read-set append with the TM's backend. The simulator
// is special-cased so the per-access hot path stays devirtualized, and
// reads only the fields latched at reset.
func (tx *Tx) admitRead() {
	if tx.sim {
		if tx.armed {
			tx.maybeSpurious()
		}
		if len(tx.reads) >= tx.readCap {
			tx.abort(CauseCapacity)
		}
		return
	}
	tx.th.tm.backend.Admit(tx, false, len(tx.reads))
}

// admitWrite is admitRead for the write set. n is the entry count the
// access needs admitted: the set's size for an append, the entry's index
// for an overwrite (which never grows the footprint, so it can only
// abort spuriously).
func (tx *Tx) admitWrite(n int) {
	if tx.sim {
		if tx.armed {
			tx.maybeSpurious()
		}
		if n >= tx.writeCap {
			tx.abort(CauseCapacity)
		}
		return
	}
	tx.th.tm.backend.Admit(tx, true, n)
}

func (tx *Tx) logRead(ver *atomic.Uint64, seen uint64) {
	tx.admitRead()
	tx.reads = append(tx.reads, readEntry{ver: ver, seen: seen})
}

// logWrite, logAdd and findWrite take the cell's version-word address
// from the caller (a concrete field access) rather than calling
// c.version() through the interface: the scans run on every
// transactional access, so both the dynamic dispatch and the interface
// comparison it would take to dedup entries are measurable.
func (tx *Tx) logWrite(c cell, ver *atomic.Uint64, word uint64, ptr any, isPtr bool) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].ver == ver {
			if tx.writes[i].isAdd {
				panic("htm: Set on a cell with a pending AddAtCommit")
			}
			tx.admitWrite(i)
			tx.writes[i].word = word
			tx.writes[i].ptr = ptr
			return
		}
	}
	tx.admitWrite(len(tx.writes))
	tx.writes = append(tx.writes, writeEntry{c: c, ver: ver, word: word, ptr: ptr, isPtr: isPtr})
}

// logAdd queues a commutative increment (see Word.AddAtCommit). Repeated
// adds to the same cell accumulate; mixing with Set is unsupported.
func (tx *Tx) logAdd(c cell, ver *atomic.Uint64, delta uint64) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].ver == ver {
			if !tx.writes[i].isAdd {
				panic("htm: AddAtCommit on a cell already written in this transaction")
			}
			tx.admitWrite(i)
			tx.writes[i].word += delta
			return
		}
	}
	tx.admitWrite(len(tx.writes))
	tx.writes = append(tx.writes, writeEntry{c: c, ver: ver, word: delta, isAdd: true})
}

// findWrite reports whether the cell with the given version word is in
// the write set and returns its entry. A cell with a pending commutative
// increment cannot be read back (its final value is only known at
// commit).
func (tx *Tx) findWrite(ver *atomic.Uint64) (*writeEntry, bool) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].ver == ver {
			if tx.writes[i].isAdd {
				panic("htm: transactional read of a cell with a pending AddAtCommit")
			}
			return &tx.writes[i], true
		}
	}
	return nil, false
}

// ownsLock reports whether ver is the version word of a cell in the
// write set (and therefore locked by this transaction during commit).
func (tx *Tx) ownsLock(ver *atomic.Uint64) bool {
	for i := range tx.writes {
		if tx.writes[i].ver == ver {
			return true
		}
	}
	return false
}

// releaseLocks unlocks the first n write-set cells, restoring their
// pre-lock versions.
func (tx *Tx) releaseLocks(n int) {
	for i := 0; i < n; i++ {
		w := &tx.writes[i]
		w.ver.Store(w.prevVer)
	}
}

// commit attempts to commit the transaction, returning CauseNone on
// success.
func (tx *Tx) commit() AbortCause {
	if len(tx.writes) == 0 {
		// Read-only transactions are consistent at rv by construction.
		return CauseNone
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		ver := w.ver
		v := ver.Load()
		if v&lockBit != 0 || !ver.CompareAndSwap(v, v|lockBit) {
			// Abort rather than wait: this is how HTM resolves
			// write-write contention.
			tx.releaseLocks(i)
			return CauseConflict
		}
		w.prevVer = v
	}
	wv := tx.th.tm.clock.tick()
	if wv != tx.rv+1 {
		// Some other write (transactional or not) happened since begin:
		// the read set must be validated.
		for i := range tx.reads {
			rd := &tx.reads[i]
			v := rd.ver.Load()
			if v == rd.seen {
				continue
			}
			if v == rd.seen|lockBit && tx.ownsLock(rd.ver) {
				continue
			}
			tx.releaseLocks(len(tx.writes))
			return CauseConflict
		}
	}
	nv := wv << 1
	for i := range tx.writes {
		w := &tx.writes[i]
		switch {
		case w.isAdd:
			w.c.applyAdd(w.word)
		case w.isPtr:
			w.c.applyPtr(w.ptr)
		default:
			w.c.applyWord(w.word)
		}
		w.ver.Store(nv)
	}
	return CauseNone
}

// Atomic runs fn as a single transaction attempt on the given path and
// reports whether it committed, together with the abort details
// otherwise. Like hardware transactions, an attempt that aborts has no
// effect on shared memory; unlike hardware, fn is re-entered from the top
// only if the caller retries.
//
// fn must not start nested transactions, perform non-transactional cell
// operations, or retain tx. Panics other than transaction aborts
// propagate to the caller.
func (th *Thread) Atomic(path PathKind, fn func(tx *Tx)) (bool, Abort) {
	if th.inTx {
		panic("htm: nested transaction")
	}
	th.inTx = true
	tx := &th.tx
	tx.reset(path)
	th.tm.backend.Begin(tx)
	cause, code := th.runTx(tx, fn)
	th.tm.backend.End(tx, cause == CauseNone)
	th.inTx = false
	if cause == CauseNone {
		atomic.AddUint64(&th.stats.Commits[path], 1)
		return true, Abort{}
	}
	atomic.AddUint64(&th.stats.Aborts[path][cause], 1)
	return false, Abort{Cause: cause, Code: code}
}

// runTx executes fn and commit, translating abort panics into a cause.
func (th *Thread) runTx(tx *Tx, fn func(tx *Tx)) (cause AbortCause, code uint8) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(txAbort)
			if !ok {
				// A foreign panic is unwinding the attempt past Atomic:
				// tear the attempt down here, since Atomic's post-call
				// code will never run. drop (rather than wait for the
				// next reset) so the dead write set's ptr entries don't
				// pin nodes against reclamation on a thread that never
				// transacts again.
				tx.drop()
				th.tm.backend.End(tx, false)
				th.inTx = false
				panic(r)
			}
			cause, code = a.cause, a.code
		}
	}()
	fn(tx)
	return th.tm.backend.Commit(tx), 0
}
