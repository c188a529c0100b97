// Package heap implements the heap-file relation storage method: records
// stored in slotted pages through the shared buffer pool, with record
// addresses (page, slot) as the record keys.
//
// Pages are addressed by logical page numbers local to the relation and
// mapped to physical disk pages through an in-memory page table, so the
// record addresses named in log records replay deterministically at
// restart regardless of how relations interleaved their allocations.
// Deleted slots are tombstoned in place (bytes and capacity retained), so
// log-driven undo of a delete puts the record back in its own slot.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dmx/internal/buffer"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/pagefile"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Name is the DDL name of the storage method.
const Name = "heap"

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:   core.SMHeap,
		Name: Name,
		Snapshot: func(inst core.StorageInstance, emit func(types.Key, []byte) error) error {
			return inst.(*store).snapshot(emit)
		},
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			return attrs.CheckAllowed(Name)
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			return nil, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			return newStore(env, rd), nil
		},
	})
}

// Page layout (pagefile.PageSize bytes):
//
//	0..2   nslots (uint16)
//	2..4   freeHigh (uint16): lowest byte offset of the data region
//	4..    slot directory, 8 bytes per slot:
//	       off (uint16) | cap (uint16) | len (uint16) | flags (uint8) | pad
//
// Record data grows downward from the page end; the directory grows upward.
const (
	pageHdrSize  = 4
	slotDirEntry = 8
	flagDeleted  = 1
)

func slotOffset(slot int) int { return pageHdrSize + slot*slotDirEntry }

type rid struct {
	page uint32
	slot uint32
}

// ord is the rid's position in record-address order, which is also the
// byte order of its encoded key.
func (r rid) ord() uint64 { return uint64(r.page)<<32 | uint64(r.slot) }

func encodeRID(r rid) types.Key {
	return binary.BigEndian.AppendUint64(make(types.Key, 0, 8), r.ord())
}

func decodeRID(k types.Key) (rid, error) {
	if len(k) != 8 {
		return rid{}, fmt.Errorf("heap: bad record key length %d", len(k))
	}
	return rid{page: binary.BigEndian.Uint32(k), slot: binary.BigEndian.Uint32(k[4:])}, nil
}

// store is the heap storage instance for one relation.
type store struct {
	env *core.Env
	rd  *core.RelDesc

	// mu latches the page table, the pages' contents and the version
	// chains. Readers (scan, fetch) hold it shared and so must never
	// extend the page table; everything else holds it exclusive.
	mu       sync.RWMutex
	pages    []pagefile.PageID // logical page number -> physical page
	free     []int             // free bytes per logical page
	nrecords int
	vers     map[rid]*verMeta // MVCC version chains, newest first (nil until a write stamps one)
	sweptHW  uint64           // snapshot horizon at the last retireVersions sweep
	enc      []byte           // a write's encoded record, reused; putOn copies it into the page

	// pending holds each writing transaction's unstamped chain entries in
	// push order; settle (settlePending, bound once) stamps and drops them
	// when the transaction ends. spare keeps emptied lists for reuse.
	pending map[wal.TxnID][]*verMeta
	spare   [][]*verMeta
	settle  txn.Action
}

// verMeta is one entry of a record address's version chain: the state
// change a writer applied at that rid, newest first. The entry's payload
// is not stored here — it is reconstructed on demand from the WAL record
// at lsn (New for the version the entry created, Old of the oldest entry
// for the pre-chain version), so the chain costs a few words per
// uncommitted or recently committed write.
//
// stamp is 0 while the writer is uncommitted and becomes its commit
// stamp when EventCommit fires (after the commit record is durable,
// before the stamp is published into the high-water). An aborting writer
// pops its entries during undo, so stamp-0 entries never outlive their
// transaction.
type verMeta struct {
	lsn   wal.LSN
	stamp uint64
	born  bool // this entry created the record at this rid (insert, moved-in update)
	gone  bool // this entry removed the record at this rid (delete, moved-out update)
	prev  *verMeta
}

func newStore(env *core.Env, rd *core.RelDesc) *store {
	s := &store{env: env, rd: rd, pending: make(map[wal.TxnID][]*verMeta)}
	s.settle = s.settlePending
	return s
}

// ensurePage extends the page table so logical page p exists.
func (s *store) ensurePage(p uint32) error {
	for uint32(len(s.pages)) <= p {
		f, err := s.env.Pool.NewPage()
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint16(f.Data[2:], uint16(pagefile.PageSize))
		id := f.ID // f may be recycled for another page once unpinned
		if err := s.env.Pool.Unpin(f, true); err != nil {
			return err
		}
		s.pages = append(s.pages, id)
		s.free = append(s.free, pagefile.PageSize-pageHdrSize)
	}
	return nil
}

// withPage pins the logical page and runs fn on its frame. A write-intent
// pin marks the frame dirty even when fn fails: a mutator may have changed
// bytes before erroring (e.g. a log append refused after the slot was
// written), and an unchanged page written back is harmless while a changed
// one silently dropped is not.
//
// tx is the transaction charged for buffer faults in its span trace; nil
// on recovery and replay paths, which run with no transaction. A page the
// relation does not have is ErrNotFound: only insert placement and redo
// (ensurePage) extend the page table, never a lookup.
func (s *store) withPage(tx *txn.Txn, p uint32, write bool, fn func(f *buffer.Frame) error) error {
	f, err := s.pin(tx, p)
	if err != nil {
		return err
	}
	ferr := fn(f)
	uerr := s.env.Pool.Unpin(f, write)
	if ferr != nil {
		return ferr
	}
	return uerr
}

// pin pins logical page p for tx (see withPage); the caller unpins it.
func (s *store) pin(tx *txn.Txn, p uint32) (*buffer.Frame, error) {
	if int(p) >= len(s.pages) {
		return nil, fmt.Errorf("heap: %w: page %d", core.ErrNotFound, p)
	}
	tr := tx.Trace()
	var start time.Time
	if tr.Detailed() {
		start = time.Now()
	}
	f, st, err := s.env.Pool.PinWithStats(s.pages[p])
	chargePin(tx.Acct(), st)
	if tr.Detailed() && (st.Miss || err != nil) {
		op := "pin"
		if st.Evicted {
			op = "pin+evict"
		}
		tr.Event("buffer.miss", s.rd.Name, op, start, time.Since(start), err)
	}
	return f, err
}

// chargePin books one page pin against the transaction's ledger.
func chargePin(acct *txn.Stats, st buffer.PinStats) {
	if acct == nil {
		return
	}
	if st.Miss {
		acct.BufferMisses.Add(1)
	} else {
		acct.BufferHits.Add(1)
	}
}

// pageFor returns a logical page with room for an encLen-byte record,
// extending the relation when none has space. Caller holds s.mu.
func (s *store) pageFor(encLen int) (int, error) {
	need := encLen + slotDirEntry
	if need > pagefile.PageSize-pageHdrSize {
		return 0, fmt.Errorf("heap: record of %d bytes exceeds page capacity", encLen)
	}
	for p := len(s.pages) - 1; p >= 0; p-- { // newest pages fill first
		if s.free[p] >= need {
			return p, nil
		}
	}
	if err := s.ensurePage(uint32(len(s.pages))); err != nil {
		return 0, err
	}
	return len(s.pages) - 1, nil
}

// logStamped appends the modification record while f is pinned (pinned
// frames cannot be evicted) and stamps the frame with the record's LSN, so
// the buffer pool forces the log up to it before the page can reach disk
// (write-ahead rule under the steal policy).
func (s *store) logStamped(tx *txn.Txn, f *buffer.Frame, p core.ModPayload) (wal.LSN, error) {
	lsn, err := core.LogSMLSN(tx, s.rd, p)
	if err != nil {
		return 0, err
	}
	s.env.Pool.StampLSN(f, lsn)
	return lsn, nil
}

// pushVersion prepends a chain entry at r and registers it for commit
// stamping. The chain below is pruned past the newest entry every open
// snapshot can already see — nothing ever walks below that — which
// bounds chain length even under long-running readers once the oldest
// snapshot advances. Caller holds s.mu.
func (s *store) pushVersion(tx *txn.Txn, r rid, lsn wal.LSN, born, gone bool) {
	if s.vers == nil {
		s.vers = make(map[rid]*verMeta)
	}
	e := &verMeta{lsn: lsn, born: born, gone: gone, prev: s.vers[r]}
	s.vers[r] = e
	horizon := s.env.Txns.OldestSnapshotHW()
	for p := e; p != nil; p = p.prev {
		if p.stamp != 0 && p.stamp <= horizon {
			if p.prev != nil {
				p.prev = nil
				s.env.Obs.MVCC.Pruned.Inc()
			}
			break
		}
	}
	s.notePending(tx, e)
}

// Spare pending lists: at most maxSpare are kept, none with room for more
// than maxSpareCap entries (a bulk transaction's list is left to the
// collector).
const (
	maxSpare    = 16
	maxSpareCap = 1024
)

// notePending queues e for stamping when tx commits. A transaction's first
// entry in this store subscribes settle to EventCommit, which fires after
// the commit record is durable and before the stamp is published into the
// high-water — so by the time any snapshot's high-water covers the stamp,
// every entry carries it — and to EventEnd, which fires on every
// termination, an abort or a failed commit among them. Caller holds s.mu.
func (s *store) notePending(tx *txn.Txn, e *verMeta) {
	lst, ok := s.pending[tx.ID()]
	if !ok {
		if n := len(s.spare); n > 0 {
			lst, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			lst = make([]*verMeta, 0, 8)
		}
		_ = tx.Subscribe(txn.EventCommit, s.settle)
		_ = tx.Subscribe(txn.EventEnd, s.settle)
	}
	s.pending[tx.ID()] = append(lst, e)
}

// settlePending ends tx's pending list: on commit every entry takes the
// commit stamp; on any other end the entries stay unstamped (undo popped
// them, or restart recovery resolves a commit of unknown fate). The list
// is emptied and kept for reuse. Whichever of EventCommit and EventEnd
// fires second finds nothing to do.
func (s *store) settlePending(tx *txn.Txn, _ string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lst, ok := s.pending[tx.ID()]
	if !ok {
		return nil
	}
	delete(s.pending, tx.ID())
	if stamp := tx.CommitStamp(); stamp != 0 {
		for _, e := range lst {
			e.stamp = stamp
		}
	}
	clear(lst)
	if len(s.spare) < maxSpare && cap(lst) <= maxSpareCap {
		s.spare = append(s.spare, lst[:0])
	}
	return nil
}

// PendingVersions reports how many transactions have a pending list in
// this store and how many entries the lists hold (tests).
func (s *store) PendingVersions() (lists, entries int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, lst := range s.pending {
		entries += len(lst)
	}
	return len(s.pending), entries
}

// unchain pops the head of r's version chain if it is uncommitted: undo
// is removing the state change that pushed it. Only the owning
// transaction can hold an uncommitted entry at r (writers keep 2PL, so
// one X lock holder per record), and undo applies its records newest
// first, so the stamp-0 head is always the entry being undone — and the
// last of id's pending list, which drops it. Restart recovery runs
// against fresh stores with empty chains and no-ops here. Caller holds
// s.mu.
func (s *store) unchain(id wal.TxnID, r rid) {
	head := s.vers[r]
	if head == nil || head.stamp != 0 {
		return
	}
	if head.prev == nil {
		delete(s.vers, r)
	} else {
		s.vers[r] = head.prev
	}
	if lst := s.pending[id]; len(lst) > 0 && lst[len(lst)-1] == head {
		lst[len(lst)-1] = nil
		s.pending[id] = lst[:len(lst)-1]
	}
}

// versionFor resolves which version of the record at r a snapshot sees.
// usePage means current page state is the visible version (also the
// answer for chainless records: a record with no chain predates every
// tracked write and is frozen-visible). Otherwise the visible version
// was reconstructed from the WAL: present=false means the record does
// not exist in the snapshot, else rec is its value. Caller holds s.mu.
func (s *store) versionFor(tx *txn.Txn, r rid, snap *txn.Snapshot) (usePage bool, rec types.Record, present bool, err error) {
	head := s.vers[r]
	if head == nil {
		return true, nil, true, nil
	}
	e := head
	for e != nil && !snap.Visible(e.stamp) {
		e = e.prev
	}
	if e == head {
		return true, nil, true, nil
	}
	s.env.Obs.MVCC.ChainWalks.Inc()
	if st := tx.Acct(); st != nil {
		st.ChainWalks.Add(1)
	}
	if e == nil {
		// Nothing in the chain is visible: the snapshot predates every
		// tracked write at r. The pre-chain version is the before-image
		// of the oldest entry — unless that entry created the record,
		// in which case there was nothing before it.
		oldest := head
		for oldest.prev != nil {
			oldest = oldest.prev
		}
		if oldest.born {
			return false, nil, false, nil
		}
		rec, err = s.versionPayload(oldest.lsn, true)
		return false, rec, err == nil, err
	}
	if e.gone {
		return false, nil, false, nil
	}
	rec, err = s.versionPayload(e.lsn, false)
	return false, rec, err == nil, err
}

// versionPayload reconstructs a record version from the WAL record at
// lsn: the after-image (old=false) for the version an entry created, or
// the before-image (old=true) below the oldest chain entry. Checkpoints
// cannot truncate records a chain still references (they refuse to run
// while snapshots are open and freeze all chains afterwards), so the
// lookup only fails on corruption.
func (s *store) versionPayload(lsn wal.LSN, old bool) (types.Record, error) {
	logRec, ok := s.env.Log.At(lsn)
	if !ok {
		return nil, fmt.Errorf("heap: version log record %d unavailable", lsn)
	}
	p, err := core.DecodeMod(logRec.Payload)
	if err != nil {
		return nil, err
	}
	s.env.Obs.MVCC.Reconstructions.Inc()
	if old {
		return p.Old, nil
	}
	return p.New, nil
}

// FreezeVersions implements core.VersionedStorage: a truncating checkpoint
// (writers quiesced, no snapshot open) drops every chain. Page state,
// which the checkpoint just captured, becomes the frozen version all
// future snapshots start from, and no chain entry outlives the WAL
// records it references.
func (s *store) FreezeVersions() {
	s.mu.Lock()
	if len(s.vers) > 0 {
		s.env.Obs.MVCC.Frozen.Add(int64(len(s.vers)))
	}
	s.vers = nil
	s.mu.Unlock()
}

// retireVersions drops every chain whose head all open and future
// snapshots can see (visibility is by high-water alone): page state is
// that version, which is what a chainless record means. It runs when a
// scan opens and the snapshot horizon has advanced since the last sweep,
// so a loaded, quiescent relation scans chainless without waiting for a
// checkpoint. An uncommitted head (stamp 0) always stays.
func (s *store) retireVersions() {
	s.mu.RLock()
	chains, swept := len(s.vers), s.sweptHW
	s.mu.RUnlock()
	if chains == 0 {
		return
	}
	horizon := s.env.Txns.OldestSnapshotHW()
	if horizon <= swept {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	retired := int64(0)
	for r, head := range s.vers {
		if head.stamp == 0 || head.stamp > horizon {
			continue
		}
		for e := head; e != nil; e = e.prev {
			retired++
		}
		delete(s.vers, r)
	}
	s.env.Obs.MVCC.Pruned.Add(retired)
	s.sweptHW = horizon
}

// VersionChainLen reports the version-chain length at key (tests).
func (s *store) VersionChainLen(key types.Key) int {
	r, err := decodeRID(key)
	if err != nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for e := s.vers[r]; e != nil; e = e.prev {
		n++
	}
	return n
}

// slotAt returns the directory offset of r's slot on the pinned frame f
// and whether the slot is a tombstone; a slot past the directory's end is
// ErrNotFound.
func slotAt(f *buffer.Frame, r rid) (so int, deleted bool, err error) {
	if int(r.slot) >= int(binary.BigEndian.Uint16(f.Data)) {
		return 0, false, fmt.Errorf("heap: %w: slot %d of page %d", core.ErrNotFound, r.slot, r.page)
	}
	so = slotOffset(int(r.slot))
	return so, f.Data[so+6]&flagDeleted != 0, nil
}

// liveSlotAt is slotAt for a record that must exist: a tombstone is
// ErrNotFound too.
func liveSlotAt(f *buffer.Frame, r rid) (int, error) {
	so, deleted, err := slotAt(f, r)
	if err == nil && deleted {
		err = fmt.Errorf("heap: %w: record %v deleted", core.ErrNotFound, r)
	}
	return so, err
}

// putOn stores enc as the live record at r on the pinned frame f. A slot
// past the directory's end extends it (the slots in between become
// tombstones); a slot whose capacity holds enc is rewritten in place;
// otherwise the bytes move to fresh space on the same page and the slot is
// repointed, so the record address stays the same. Only replay meets that
// last case: a checkpoint snapshot re-places each record at its current
// size, so a slot that shrank in place loses the headroom an earlier
// overwrite replayed over it needs. Caller holds s.mu.
func (s *store) putOn(f *buffer.Frame, r rid, enc []byte) error {
	d := f.Data
	nslots := int(binary.BigEndian.Uint16(d))
	so := slotOffset(int(r.slot))
	if int(r.slot) < nslots && len(enc) <= int(binary.BigEndian.Uint16(d[so+2:])) {
		copy(d[binary.BigEndian.Uint16(d[so:]):], enc)
		binary.BigEndian.PutUint16(d[so+4:], uint16(len(enc)))
		return s.markOn(f, r, false)
	}
	newSlots := max(nslots, int(r.slot)+1)
	freeHigh := int(binary.BigEndian.Uint16(d[2:])) - len(enc)
	if freeHigh < slotOffset(newSlots) {
		return fmt.Errorf("heap: page %d overflow placing %d bytes", r.page, len(enc))
	}
	for i := nslots; i < newSlots; i++ {
		clear(d[slotOffset(i):slotOffset(i+1)])
		d[slotOffset(i)+6] = flagDeleted
	}
	copy(d[freeHigh:], enc)
	binary.BigEndian.PutUint16(d[so:], uint16(freeHigh))
	binary.BigEndian.PutUint16(d[so+2:], uint16(len(enc)))
	binary.BigEndian.PutUint16(d[so+4:], uint16(len(enc)))
	binary.BigEndian.PutUint16(d, uint16(newSlots))
	binary.BigEndian.PutUint16(d[2:], uint16(freeHigh))
	s.free[r.page] -= len(enc) + (newSlots-nslots)*slotDirEntry
	return s.markOn(f, r, false)
}

// markOn sets (deleted) or clears the tombstone of r's slot on the pinned
// frame f, keeping the record count exact. Caller holds s.mu.
func (s *store) markOn(f *buffer.Frame, r rid, deleted bool) error {
	so, was, err := slotAt(f, r)
	if err != nil || was == deleted {
		return err
	}
	f.Data[so+6] ^= flagDeleted
	if deleted {
		s.nrecords--
	} else {
		s.nrecords++
	}
	return nil
}

// Insert implements core.StorageInstance. The record is placed and its
// log record appended within one pin session so the frame carries the
// record's LSN before it can be stolen.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc = rec.AppendEncode(s.enc[:0])
	enc := s.enc
	page, err := s.pageFor(len(enc))
	if err != nil {
		return nil, err
	}
	var key types.Key
	err = s.withPage(tx, uint32(page), true, func(f *buffer.Frame) error {
		r := rid{page: uint32(page), slot: uint32(binary.BigEndian.Uint16(f.Data))}
		if err := s.putOn(f, r, enc); err != nil {
			return err
		}
		key = encodeRID(r)
		lsn, lerr := s.logStamped(tx, f, core.ModPayload{Op: core.ModInsert, Key: key, New: rec})
		if lerr != nil {
			return lerr
		}
		s.pushVersion(tx, r, lsn, true, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return key, nil
}

// Update implements core.StorageInstance: in place when the new record
// fits the slot, otherwise tombstone-and-move to a new record address.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	r, err := decodeRID(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc = newRec.AppendEncode(s.enc[:0])
	enc := s.enc
	fits := false
	err = s.withPage(tx, r.page, true, func(f *buffer.Frame) error {
		so, err := liveSlotAt(f, r)
		if err != nil {
			return err
		}
		if len(enc) > int(binary.BigEndian.Uint16(f.Data[so+2:])) {
			return nil // no room: fall through to tombstone-and-move
		}
		fits = true
		if err := s.putOn(f, r, enc); err != nil {
			return err
		}
		lsn, lerr := s.logStamped(tx, f, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: key, Old: oldRec, New: newRec})
		if lerr != nil {
			return lerr
		}
		s.pushVersion(tx, r, lsn, false, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fits {
		return key, nil
	}
	// Tombstone-and-move touches two pages, so the single-frame
	// log-while-pinned session does not apply. The new address is
	// computable without mutating anything (next slot of a page with
	// room), so append the log record first — pure write-ahead — then
	// apply both page mutations stamped with its LSN.
	page, err := s.pageFor(len(enc))
	if err != nil {
		return nil, err
	}
	var newR rid
	err = s.withPage(tx, uint32(page), false, func(f *buffer.Frame) error {
		newR = rid{page: uint32(page), slot: uint32(binary.BigEndian.Uint16(f.Data))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	newKey := encodeRID(newR)
	lsn, err := core.LogSMLSN(tx, s.rd, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: newKey, Old: oldRec, New: newRec})
	if err != nil {
		return nil, err
	}
	// Chain entries go in as soon as the log record exists, before the
	// page mutations: if either mutation fails, the veto rollback undoes
	// this record and unchains exactly these two entries.
	s.pushVersion(tx, r, lsn, false, true)
	s.pushVersion(tx, newR, lsn, true, false)
	err = s.withPage(tx, r.page, true, func(f *buffer.Frame) error {
		s.env.Pool.StampLSN(f, lsn)
		return s.markOn(f, r, true)
	})
	if err != nil {
		return nil, err
	}
	err = s.withPage(tx, newR.page, true, func(f *buffer.Frame) error {
		s.env.Pool.StampLSN(f, lsn)
		return s.putOn(f, newR, enc)
	})
	if err != nil {
		return nil, err
	}
	return newKey, nil
}

// Delete implements core.StorageInstance: the slot is tombstoned in place,
// logged and stamped within the same pin session.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	r, err := decodeRID(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.withPage(tx, r.page, true, func(f *buffer.Frame) error {
		if err := s.markOn(f, r, true); err != nil {
			return err
		}
		lsn, lerr := s.logStamped(tx, f, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec})
		if lerr != nil {
			return lerr
		}
		s.pushVersion(tx, r, lsn, false, true)
		return nil
	})
}

// FetchByKey implements core.StorageInstance: a run of one key. A locking
// transaction reads page state; a snapshot transaction reads the version
// its snapshot holds, reconstructed from the WAL when the record was
// overwritten or deleted since.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error) {
	q := smutil.CompiledQualifier(filter, fields)
	keys, out := [1]types.Key{key}, [1]core.Fetched{}
	if err := s.fetchRun(tx, keys[:], &q, out[:]); err != nil {
		return nil, err
	}
	return out[0].Rec, out[0].Err
}

// FetchRun implements core.VersionedStorage: FetchByKey's snapshot read
// for every key of the run, with one qualifier (the caller's compiled
// filter, the projection built) whose records share one backing array
// sized to the run.
func (s *store) FetchRun(tx *txn.Txn, keys []types.Key, fields []int, filter *expr.Program, out []core.Fetched) error {
	if !tx.ReadOnly() {
		return fmt.Errorf("heap: a fetch run needs a snapshot transaction")
	}
	q := smutil.CompiledQualifier(filter, fields)
	q.SizeRun(len(keys))
	return s.fetchRun(tx, keys, &q, out)
}

// fetchRun answers keys into out under one hold of the shared latch, with
// one pin per stretch of consecutive keys on the same page. A snapshot
// transaction judges each key against its snapshot on its own.
func (s *store) fetchRun(tx *txn.Txn, keys []types.Key, q *smutil.Qualifier, out []core.Fetched) (err error) {
	snap, tr := tx.Snapshot(), tx.Trace()
	var f *buffer.Frame // pinned while consecutive keys stay on its page
	var page uint32
	unpin := func() {
		if uerr := s.env.Pool.Unpin(f, false); err == nil {
			err = uerr
		}
		f = nil
	}
	s.mu.RLock()
	defer func() {
		if f != nil {
			unpin()
		}
		s.mu.RUnlock()
	}()
	for i, key := range keys {
		var r rid
		if r, err = decodeRID(key); err != nil {
			return err
		}
		if snap != nil {
			s.env.Obs.MVCC.SnapshotReads.Inc()
			var start time.Time
			if tr.Detailed() { // the clock is read only for the trace event
				start = time.Now()
			}
			usePage, vrec, present, verr := s.versionFor(tx, r, snap)
			if !usePage || verr != nil {
				if tr.Detailed() {
					tr.Event("mvcc.reconstruct", s.rd.Name, "fetch", start, time.Since(start), verr)
				}
				switch {
				case verr != nil:
					return verr
				case !present:
					out[i] = core.Fetched{Err: core.ErrNotFound}
				default:
					if out[i], err = fetched(q.Record(vrec)); err != nil {
						return err
					}
				}
				continue
			}
		}
		if f != nil && page != r.page {
			if unpin(); err != nil {
				return err
			}
		}
		if f == nil {
			if f, err = s.pin(tx, r.page); errors.Is(err, core.ErrNotFound) {
				out[i], err = core.Fetched{Err: core.ErrNotFound}, nil // a page the relation does not have
				continue
			} else if err != nil {
				return err
			}
			page = r.page
		}
		so, derr := liveSlotAt(f, r)
		if derr != nil {
			out[i] = core.Fetched{Err: core.ErrNotFound}
			continue
		}
		if out[i], err = fetched(q.Encoded(slotBody(f, so))); err != nil {
			return err
		}
	}
	return nil
}

// fetched is one key's FetchRun answer from its qualifier's verdict.
func fetched(rec types.Record, ok bool, err error) (core.Fetched, error) {
	if !ok && err == nil {
		return core.Fetched{Err: core.ErrFiltered}, nil
	}
	return core.Fetched{Rec: rec}, err
}

// slotBody is the record bytes of the live slot whose directory entry is at so.
func slotBody(f *buffer.Frame, so int) []byte {
	off := int(binary.BigEndian.Uint16(f.Data[so:]))
	return f.Data[off : off+int(binary.BigEndian.Uint16(f.Data[so+4:]))]
}

// snapshot implements core.StorageOps.Snapshot: every live record in
// record-address order, one pin per page. While the page is pinned, under
// the shared latch, its live slot bodies — the records' stored encodings
// — are copied into a run the snapshot reuses; emit sees them once the
// page is unpinned and the latch released.
func (s *store) snapshot(emit func(types.Key, []byte) error) error {
	var run smutil.StoredRun
	var key [8]byte
	for p := uint32(0); ; p++ {
		s.mu.RLock()
		if int(p) >= len(s.pages) {
			s.mu.RUnlock()
			return nil
		}
		f, err := s.pin(nil, p)
		if err != nil {
			s.mu.RUnlock()
			return err
		}
		for slot := range int(binary.BigEndian.Uint16(f.Data)) {
			if so := slotOffset(slot); f.Data[so+6]&flagDeleted == 0 {
				binary.BigEndian.PutUint64(key[:], rid{page: p, slot: uint32(slot)}.ord())
				run.Add(key[:], slotBody(f, so))
			}
		}
		err = s.env.Pool.Unpin(f, false)
		s.mu.RUnlock()
		if err != nil {
			return err
		}
		if err := run.Emit(emit); err != nil {
			return err
		}
	}
}

// OpenScan implements core.StorageInstance: record-address order. A
// snapshot transaction's scan captures the snapshot once: every slot it
// passes is resolved against it, so the scan observes one consistent
// state no matter which transactions commit while it is open.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	sc := &heapScan{store: s, tx: tx, q: smutil.NewQualifier(s.env, opts), end: math.MaxUint64}
	if opts.Start != nil {
		start, err := decodeRID(opts.Start)
		if err != nil {
			return nil, err
		}
		sc.start = start
	}
	if opts.End != nil {
		end, err := decodeRID(opts.End)
		if err != nil {
			return nil, err
		}
		sc.end = end.ord()
	}
	s.retireVersions()
	if tx.ReadOnly() {
		sc.snap = tx.Snapshot()
		s.env.Obs.MVCC.SnapshotReads.Inc()
	}
	return sc, nil
}

// EstimateCost implements core.StorageInstance: a heap scan reads every
// page of the relation.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	s.mu.RLock()
	npages := len(s.pages)
	n := s.nrecords
	s.mu.RUnlock()
	return core.CostEstimate{
		Usable:      true,
		IO:          float64(npages),
		CPU:         float64(n),
		Selectivity: smutil.RequestSelectivity(req),
	}
}

// RecordCount implements core.StorageInstance.
func (s *store) RecordCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nrecords
}

// PageCount reports the number of pages (for the experiment harness).
func (s *store) PageCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// ApplyLogged implements core.StorageInstance through the kit's logged
// effect: the removed key is tombstoned, then the record is put at its key
// with putOn, which redoes an insert or overwrite wherever replay finds the
// slot (past the directory's end, or too small) and leaves the record
// address unchanged. Both steps are idempotent, so a restart that crashes
// mid-recovery replays cleanly. Undo pops the version-chain entry the
// undone write pushed at each key; redo may address pages a restarted
// relation has not reached yet.
func (s *store) ApplyLogged(id wal.TxnID, payload []byte, undo bool) error {
	e, err := smutil.LoggedEffect(payload, undo)
	if err != nil {
		return err
	}
	var del, put rid
	if e.Del != nil {
		if del, err = decodeRID(e.Del); err != nil {
			return err
		}
	}
	if e.Put != nil {
		if put, err = decodeRID(e.Put); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	replay := func(r rid, fn func(f *buffer.Frame) error) error {
		if undo {
			s.unchain(id, r)
		} else if err := s.ensurePage(r.page); err != nil {
			return err
		}
		return s.withPage(nil, r.page, true, fn)
	}
	if e.Del != nil {
		if err := replay(del, func(f *buffer.Frame) error { return s.markOn(f, del, true) }); err != nil {
			return err
		}
	}
	if e.Put == nil {
		return nil
	}
	s.enc = e.Rec.AppendEncode(s.enc[:0])
	return replay(put, func(f *buffer.Frame) error { return s.putOn(f, put, s.enc) })
}

var _ core.StorageInstance = (*store)(nil)

// heapScan is a key-sequential access in record-address order. The
// embedded position is the record address last returned.
type heapScan struct {
	store *store
	tx    *txn.Txn         // buffer faults during the scan charge its trace
	q     smutil.Qualifier // the filter, compiled at OpenScan, and the projection
	start rid              // first candidate before the scan has returned anything
	end   uint64           // ord of the exclusive end bound
	snap  *txn.Snapshot    // non-nil: resolve every slot against this snapshot
	keys  types.Slab[byte] // the record keys Next returns
	smutil.Position
}

// Next implements core.Scan. Each page is pinned once, under the shared
// latch, and its slots are filtered while buffer resident: the compiled
// filter matches a slot's record bytes in place, so a rejected slot
// allocates nothing — its key is never encoded, and its version chain is
// looked up only while the store has chains at all. Only the qualifying
// record is materialised.
func (sc *heapScan) Next() (types.Key, types.Record, bool, error) {
	if sc.Closed {
		return nil, nil, false, fmt.Errorf("heap: scan is closed")
	}
	next := sc.start
	if sc.Started {
		after, err := decodeRID(sc.After)
		if err != nil {
			return nil, nil, false, err
		}
		next = rid{page: after.page, slot: after.slot + 1}
	}
	s := sc.store
	for {
		s.mu.RLock()
		if int(next.page) >= len(s.pages) || next.ord() >= sc.end {
			s.mu.RUnlock()
			return nil, nil, false, nil
		}
		page := next.page
		var out rid
		var outRec types.Record
		found := false
		err := s.withPage(sc.tx, page, false, func(f *buffer.Frame) error {
			nslots := int(binary.BigEndian.Uint16(f.Data))
			for int(next.slot) < nslots && next.ord() < sc.end {
				cur := next
				next.slot++
				so := slotOffset(int(cur.slot))
				if sc.snap != nil && len(s.vers) > 0 {
					// Snapshot scan: slots whose visible version is not
					// current page state are reconstructed (a record
					// deleted or moved since the snapshot) or skipped (a
					// record born after it).
					usePage, vrec, present, verr := s.versionFor(sc.tx, cur, sc.snap)
					if verr != nil {
						return verr
					}
					if !usePage {
						if !present {
							continue
						}
						var qerr error
						if outRec, found, qerr = sc.q.Record(vrec); qerr != nil || found {
							out = cur
							return qerr
						}
						continue
					}
				}
				if f.Data[so+6]&flagDeleted != 0 {
					continue
				}
				var qerr error
				if outRec, found, qerr = sc.q.Encoded(slotBody(f, so)); qerr != nil || found {
					out = cur
					return qerr
				}
			}
			if int(next.slot) >= nslots {
				next = rid{page: page + 1}
			}
			return nil
		})
		s.mu.RUnlock()
		if err != nil {
			return nil, nil, false, err
		}
		if found {
			key := sc.keys.Take(8)
			binary.BigEndian.PutUint64(key, out.ord())
			sc.Started, sc.After = true, append(sc.After[:0], key...)
			return key, outRec, true, nil
		}
	}
}
