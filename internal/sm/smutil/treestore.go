package smutil

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// TreeStore is a storage instance holding records in an in-memory B-tree.
// The record key is the storage method's choice: with no key fields it is
// an 8-byte insertion sequence number; with key fields it is their
// order-preserving encoding, which makes the fields the relation's primary
// key and lets the store answer key predicates itself. It backs the
// main-memory and B-tree-organised storage methods (logged, recoverable)
// and the temporary-relation storage method (unlogged).
type TreeStore struct {
	env       *core.Env
	rd        *core.RelDesc
	logged    bool
	keyFields []int

	mu      sync.Mutex
	tree    *btree.Tree // record key -> encoded record
	nextSeq uint64
	enc     []byte // a write's encoded record, reused; the tree copies it
}

// NewTreeStore returns an empty store for rd. keyFields nil selects
// sequence keys.
func NewTreeStore(env *core.Env, rd *core.RelDesc, logged bool, keyFields []int) *TreeStore {
	return &TreeStore{env: env, rd: rd, logged: logged, keyFields: keyFields, tree: btree.New(), nextSeq: 1}
}

func seqKey(seq uint64) types.Key {
	k := make(types.Key, 8)
	binary.BigEndian.PutUint64(k, seq)
	return k
}

func (s *TreeStore) log(tx *txn.Txn, p core.ModPayload) error {
	if !s.logged {
		return nil
	}
	return core.LogSM(tx, s.rd, p)
}

// Insert implements core.StorageInstance.
func (s *TreeStore) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	var key types.Key
	dup := false
	s.mu.Lock()
	if s.keyFields == nil {
		key = seqKey(s.nextSeq)
		s.nextSeq++
	} else {
		key = types.EncodeKeyFields(rec, s.keyFields)
		_, dup = s.tree.Get(key)
	}
	s.mu.Unlock()
	if dup {
		return nil, DuplicateKey(rec, s.keyFields)
	}
	if err := s.log(tx, core.ModPayload{Op: core.ModInsert, Key: key, New: rec}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enc = rec.AppendEncode(s.enc[:0])
	s.tree.Set(key, s.enc)
	s.mu.Unlock()
	return key, nil
}

// Update implements core.StorageInstance. Sequence keys are stable;
// updating key fields moves the record to its new key position.
func (s *TreeStore) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	newKey := key
	if s.keyFields != nil {
		newKey = types.EncodeKeyFields(newRec, s.keyFields)
	}
	moved := !newKey.Equal(key)
	s.mu.Lock()
	_, exists := s.tree.Get(key)
	dup := false
	if moved {
		_, dup = s.tree.Get(newKey)
	}
	s.mu.Unlock()
	if !exists {
		return nil, fmt.Errorf("%w: %v", core.ErrNotFound, key)
	}
	if dup {
		return nil, DuplicateKey(newRec, s.keyFields)
	}
	if err := s.log(tx, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: newKey, Old: oldRec, New: newRec}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if moved {
		s.tree.Delete(key)
	}
	s.enc = newRec.AppendEncode(s.enc[:0])
	s.tree.Set(newKey, s.enc)
	s.mu.Unlock()
	return newKey, nil
}

// Delete implements core.StorageInstance.
func (s *TreeStore) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	if err := s.log(tx, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec}); err != nil {
		return err
	}
	s.mu.Lock()
	_, ok := s.tree.Delete(key)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", core.ErrNotFound, key)
	}
	return nil
}

// FetchByKey implements core.StorageInstance: the filter matches the
// stored bytes, and only the selected fields are decoded.
func (s *TreeStore) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error) {
	s.mu.Lock()
	enc, ok := s.tree.Get(key)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", core.ErrNotFound, key)
	}
	q := CompiledQualifier(filter, fields)
	return q.Fetch(enc)
}

// OpenScan implements core.StorageInstance: record-key order, with range
// bounds. The filter matches each stored record's bytes in place; only a
// qualifying record is decoded. Records and keys come from slabs.
func (s *TreeStore) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	q := NewQualifier(s.env, opts)
	var keys types.Slab[byte]
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		rec, ok, err := q.Encoded(v)
		if !ok || err != nil {
			return nil, nil, false, err
		}
		return keys.Copy(k), rec, true, nil
	}
	return NewTreeScan(&s.mu, s.tree, opts.Start, opts.End, emit), nil
}

// SnapshotTreeStore is core.StorageOps.Snapshot for the methods a
// TreeStore backs: every record's stored bytes in record-key order. They
// are copied out of the tree a run at a time under the latch and emitted
// once it is released, as a scan's are (TreeScan); no entry is decoded.
func SnapshotTreeStore(inst core.StorageInstance, emit func(types.Key, []byte) error) error {
	s := inst.(*TreeStore)
	sc := NewTreeScan(&s.mu, s.tree, nil, nil, func(k, v []byte) (types.Key, types.Record, bool, error) {
		return nil, nil, false, emit(k, v) // skipped: one Next drains the tree
	})
	_, _, _, err := sc.Next()
	return err
}

// EstimateCost implements core.StorageInstance: memory-resident accesses
// cost no I/O and one CPU unit per record touched, and predicates on a
// prefix of the key fields make the store itself a cheap access path.
func (s *TreeStore) EstimateCost(req core.CostRequest) core.CostEstimate {
	s.mu.Lock()
	n := float64(s.tree.Len())
	height := float64(s.tree.Height())
	s.mu.Unlock()
	start, end, handled, point, depth := KeyRange(s.keyFields, req.Conjuncts, req.Scratch)
	est := core.CostEstimate{Usable: true, IO: 0, Start: start, End: end, Handled: handled,
		Ordered: s.keyFields != nil && OrderSatisfiedBy(s.keyFields, req.OrderBy)}
	switch {
	case point:
		est.CPU = height + 1
		est.Selectivity = 1 / math.Max(n, 1)
	case depth > 0:
		frac := HandledSelectivity(req, handled)
		est.CPU = height + n*frac
		est.Selectivity = frac * ResidualSelectivity(req, handled)
	default:
		est.CPU = n
		est.Selectivity = RequestSelectivity(req)
	}
	return est
}

// RecordCount implements core.StorageInstance.
func (s *TreeStore) RecordCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Len()
}

// ApplyLogged implements core.StorageInstance: logical undo/redo of the
// shared modification payload.
func (s *TreeStore) ApplyLogged(_ wal.TxnID, payload []byte, undo bool) error {
	e, err := LoggedEffect(payload, undo)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Del != nil {
		s.tree.Delete(e.Del)
	}
	if e.Put != nil {
		s.enc = e.Rec.AppendEncode(s.enc[:0])
		s.tree.Set(e.Put, s.enc)
		// Replayed sequence keys must never be handed out again.
		if s.keyFields == nil {
			if seq := binary.BigEndian.Uint64(e.Put); seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}
	return nil
}

var _ core.StorageInstance = (*TreeStore)(nil)
